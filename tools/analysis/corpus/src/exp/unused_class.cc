// Out-of-line member definitions are not uses of their own class.
#include "exp/unused_class.h"

namespace mwp {

int Orphan::Twice(int x) const { return 2 * x; }

void Sink::Write(int value) { static_cast<void>(value); }

double Spread::Mean() const { return log_mean; }

double Report() {
  SinkLine line;
  Sample sample;
  return sample.spread.Mean();
}

}  // namespace mwp
