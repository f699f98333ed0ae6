// Conventions kept: no findings.
#include "common/check.h"
#include "common/log.h"
#include "common/units.h"
void Cycle(mwp::Seconds now) {
  MWP_CHECK(now >= 0.0);
  MWP_LOG_DEBUG << "cycle at " << now;
  // std::random_device in a comment is fine
}
// The fixtures' structs have a user, so AUD-U1 stays quiet about them.
double Draw(Rng& rng, const Stats& stats) {
  return static_cast<double>(rng.engine()) * stats.speed_factor;
}
