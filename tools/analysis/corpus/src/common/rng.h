// The one seeded engine carries an inline annotation: an allowlisted
// AUD-D5 negative, as in the tree's src/common/rng.h.
#include <random>
struct Rng {
  // audit: rng-engine-ok(the one seeded engine every draw flows through)
  std::mt19937_64 engine;
};
