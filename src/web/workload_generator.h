// Transactional workload intensity profiles.
//
// Web workload intensity "may change frequently and unexpectedly" (§3.1);
// the control loop re-reads the current arrival rate each cycle. These
// profiles generate λ(t): constant (Experiment Three), piecewise steps (the
// §1 motivating scenario where intensity doubles mid-run), sinusoidal
// (day/night patterns for the examples).
#pragma once

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"

namespace mwp {

class ArrivalRateProfile {
 public:
  virtual ~ArrivalRateProfile() = default;

  /// Arrival rate (req/s) at simulated time t.
  virtual double RateAt(Seconds t) const = 0;
};

class ConstantRate : public ArrivalRateProfile {
 public:
  explicit ConstantRate(double rate) : rate_(rate) { MWP_CHECK(rate_ >= 0.0); }
  double RateAt(Seconds) const override { return rate_; }

 private:
  double rate_;
};

/// Right-continuous step function given as (start_time, rate) breakpoints.
class StepRate : public ArrivalRateProfile {
 public:
  struct Step {
    Seconds start;
    double rate;
  };
  explicit StepRate(std::vector<Step> steps);
  double RateAt(Seconds t) const override;

 private:
  std::vector<Step> steps_;
};

/// rate(t) = base + amplitude * sin(2π t / period), clamped at zero.
class SinusoidalRate : public ArrivalRateProfile {
 public:
  SinusoidalRate(double base, double amplitude, Seconds period);
  double RateAt(Seconds t) const override;

 private:
  double base_;
  double amplitude_;
  Seconds period_;
};

}  // namespace mwp
