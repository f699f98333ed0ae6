#include "batch/arrival_process.h"

#include <cmath>

#include "common/check.h"

namespace mwp {

PoissonArrivalProcess::PoissonArrivalProcess(Rng rng, Seconds mean_interarrival,
                                             Seconds start_time)
    : rng_(rng), mean_(mean_interarrival), last_time_(start_time) {
  // `mean > 0` alone lets +inf through (and NaN compares false, producing the
  // bare-check message) — both yield a degenerate stream whose first arrival
  // is at infinity, surfacing far from the construction site.
  MWP_CHECK_MSG(std::isfinite(mean_) && mean_ > 0.0,
                "Poisson mean inter-arrival must be finite and positive");
  MWP_CHECK_MSG(std::isfinite(start_time) && start_time >= 0.0,
                "Poisson start time must be finite and non-negative");
  pending_gap_ = rng_.Exponential(mean_);
}

Seconds PoissonArrivalProcess::NextArrival() {
  last_time_ += pending_gap_;
  pending_gap_ = rng_.Exponential(mean_);
  return last_time_;
}

void PoissonArrivalProcess::set_mean_interarrival(Seconds mean) {
  MWP_CHECK_MSG(std::isfinite(mean) && mean > 0.0,
                "Poisson mean inter-arrival must be finite and positive");
  // The pending gap was sampled under the old mean; a rate change must take
  // effect on the *next* arrival, not one arrival late. Rescaling by
  // new/old turns an Exp(old) draw into an Exp(new) draw (same underlying
  // uniform variate — the exponential is scale-family), so the stream stays
  // deterministic without consuming an extra Rng draw, and sequences whose
  // rate never changes are bit-identical to the lazily-sampled original.
  pending_gap_ *= mean / mean_;
  mean_ = mean;
}

}  // namespace mwp
