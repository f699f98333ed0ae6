#include "web/workload_generator.h"

#include <algorithm>
#include <cmath>

namespace mwp {

StepRate::StepRate(std::vector<Step> steps) : steps_(std::move(steps)) {
  MWP_CHECK(!steps_.empty());
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    MWP_CHECK_MSG(steps_[i].start > steps_[i - 1].start,
                  "step start times must be strictly increasing");
  }
  for (const Step& s : steps_) MWP_CHECK(s.rate >= 0.0);
}

double StepRate::RateAt(Seconds t) const {
  double rate = steps_.front().rate;
  for (const Step& s : steps_) {
    if (t >= s.start) rate = s.rate;
    else break;
  }
  return rate;
}

SinusoidalRate::SinusoidalRate(double base, double amplitude, Seconds period)
    : base_(base), amplitude_(amplitude), period_(period) {
  MWP_CHECK(base_ >= 0.0);
  MWP_CHECK(amplitude_ >= 0.0);
  MWP_CHECK(period_ > 0.0);
}

double SinusoidalRate::RateAt(Seconds t) const {
  const double two_pi = 6.283185307179586;
  return std::max(0.0, base_ + amplitude_ * std::sin(two_pi * t / period_));
}

}  // namespace mwp
