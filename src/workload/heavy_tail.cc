#include "workload/heavy_tail.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"

namespace mwp::workload {

void BoundedParetoSpec::Validate() const {
  MWP_CHECK_MSG(std::isfinite(alpha) && alpha > 0.0,
                "bounded Pareto alpha must be finite and positive");
  MWP_CHECK_MSG(std::isfinite(lower) && lower > 0.0,
                "bounded Pareto lower bound must be finite and positive");
  MWP_CHECK_MSG(std::isfinite(upper) && upper > lower,
                "bounded Pareto upper bound must exceed the lower bound");
}

double BoundedParetoSpec::Mean() const {
  Validate();
  const double ratio = lower / upper;
  const double norm = 1.0 - std::pow(ratio, alpha);
  if (alpha == 1.0) {
    return lower * std::log(upper / lower) / norm;
  }
  return std::pow(lower, alpha) * alpha / (alpha - 1.0) *
         (std::pow(lower, 1.0 - alpha) - std::pow(upper, 1.0 - alpha)) / norm;
}

double BoundedParetoSpec::Cdf(double x) const {
  if (x <= lower) return 0.0;
  if (x >= upper) return 1.0;
  const double norm = 1.0 - std::pow(lower / upper, alpha);
  return (1.0 - std::pow(lower / x, alpha)) / norm;
}

double BoundedParetoSpec::Quantile(double u) const {
  MWP_CHECK(u >= 0.0 && u < 1.0);
  const double norm = 1.0 - std::pow(lower / upper, alpha);
  return lower * std::pow(1.0 - u * norm, -1.0 / alpha);
}

void LognormalSpec::Validate() const {
  MWP_CHECK_MSG(std::isfinite(log_mean), "lognormal μ must be finite");
  MWP_CHECK_MSG(std::isfinite(log_stddev) && log_stddev > 0.0,
                "lognormal σ must be finite and positive");
}

double LognormalSpec::Mean() const {
  return std::exp(log_mean + log_stddev * log_stddev / 2.0);
}

void HeavyTailJobSpec::Validate() const {
  work.Validate();
  memory.Validate();
  MWP_CHECK_MSG(std::isfinite(cpu_memory_correlation) &&
                    cpu_memory_correlation >= -1.0 &&
                    cpu_memory_correlation <= 1.0,
                "cpu_memory_correlation must lie in [-1, 1]");
  MWP_CHECK_MSG(min_memory > 0.0 && max_memory >= min_memory,
                "memory clamp range must be positive and ordered");
  MWP_CHECK_MSG(!speeds.empty(), "at least one speed option is required");
  for (const SpeedOption& s : speeds) {
    MWP_CHECK_MSG(s.max_speed > 0.0 && s.weight > 0.0,
                  "speed options need positive speed and weight");
  }
  MWP_CHECK_MSG(goal_factor_min > 0.0 && goal_factor_max >= goal_factor_min,
                "goal factor range must be positive and ordered");
}

double StandardNormalCdf(double z) {
  return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

HeavyTailJobSampler::HeavyTailJobSampler(HeavyTailJobSpec spec, Rng rng)
    : spec_(std::move(spec)), rng_(rng) {
  spec_.Validate();
  speed_weights_.reserve(spec_.speeds.size());
  for (const SpeedOption& s : spec_.speeds) speed_weights_.push_back(s.weight);
}

SampledJob HeavyTailJobSampler::Sample() {
  // Gaussian copula: correlated standard normals drive both marginals. The
  // work draw goes normal → uniform → Pareto quantile; the memory draw uses
  // its normal score directly (a lognormal is exp of a normal).
  const double z_work = rng_.Normal(0.0, 1.0);
  const double z_indep = rng_.Normal(0.0, 1.0);
  const double rho = spec_.cpu_memory_correlation;
  const double z_mem = rho * z_work + std::sqrt(1.0 - rho * rho) * z_indep;

  // Clamp the uniform away from 1 so Quantile stays in-domain even for a
  // z_work many sigmas out.
  const double u_work =
      std::clamp(StandardNormalCdf(z_work), 0.0, 1.0 - 1e-12);

  SampledJob job;
  job.work = spec_.work.Quantile(u_work);
  job.memory = std::clamp<Megabytes>(
      std::exp(spec_.memory.log_mean + spec_.memory.log_stddev * z_mem),
      spec_.min_memory, spec_.max_memory);
  job.max_speed =
      spec_.speeds[rng_.Discrete(std::span<const double>(speed_weights_))]
          .max_speed;
  job.goal_factor = rng_.Uniform(spec_.goal_factor_min, spec_.goal_factor_max);
  return job;
}

}  // namespace mwp::workload
