// Heavy-tailed batch job CPU-work and memory-demand sampling
// (docs/ALGORITHMS.md §17).
//
// The Alibaba characterization (Cheng et al., PAPERS.md) shows per-job
// resource demand is heavy-tailed — most jobs are small, a thin tail of
// giants dominates total work — and that CPU and memory demand are
// positively but imperfectly correlated (the trace's memory pressure comes
// precisely from jobs whose memory outruns their CPU). The sampler models:
//
//   - CPU work: bounded Pareto(α, L, H) via inverse-CDF (analytic mean and
//     tail index, so the statistical suite can assert both);
//   - memory: lognormal(μ, σ), clamped to a configured range;
//   - CPU:memory skew: a Gaussian copula with correlation ρ couples the two
//     marginals without distorting either;
//   - max speed: a discrete mixture (chi-squared-tested);
//   - completion goal factor: uniform in a configured range.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace mwp::workload {

/// Pareto truncated to [lower, upper]:
///   F(x) = (1 − (L/x)^α) / (1 − (L/H)^α).
struct BoundedParetoSpec {
  double alpha = 1.7;
  double lower = 1.0;
  double upper = 1'000.0;

  /// Throws on invalid parameters (α ≤ 0, L ≤ 0, H ≤ L).
  void Validate() const;
  /// Analytic mean of the truncated distribution.
  double Mean() const;
  double Cdf(double x) const;
  /// Inverse CDF for u in [0, 1).
  double Quantile(double u) const;
};

/// Lognormal in natural-log parameters: X = exp(μ + σZ), Z ~ N(0, 1).
struct LognormalSpec {
  double log_mean = 0.0;    ///< μ
  double log_stddev = 1.0;  ///< σ

  void Validate() const;
  /// Mean of the unclamped distribution: exp(μ + σ²/2).
  double Mean() const;
};

struct SpeedOption {
  MHz max_speed = 0.0;
  double weight = 0.0;
};

struct HeavyTailJobSpec {
  BoundedParetoSpec work;  ///< megacycles
  LognormalSpec memory;    ///< MB, before clamping
  /// Gaussian-copula correlation between the work and memory draws,
  /// in [-1, 1]. Positive = big jobs tend to be memory-hungry.
  double cpu_memory_correlation = 0.35;
  Megabytes min_memory = 256.0;
  Megabytes max_memory = 12'288.0;
  std::vector<SpeedOption> speeds;
  double goal_factor_min = 1.5;
  double goal_factor_max = 4.0;

  void Validate() const;
};

struct SampledJob {
  Megacycles work = 0.0;
  MHz max_speed = 0.0;
  Megabytes memory = 0.0;
  double goal_factor = 0.0;
};

/// Φ(z), the standard normal CDF (the copula's normal→uniform bridge);
/// exposed for the statistical tests.
double StandardNormalCdf(double z);

/// Seeded sampler over HeavyTailJobSpec. Each Sample() consumes a fixed
/// number of Rng draws, so streams are reproducible and insertion-order
/// independent of consumer behaviour.
class HeavyTailJobSampler {
 public:
  HeavyTailJobSampler(HeavyTailJobSpec spec, Rng rng);

  SampledJob Sample();
  const HeavyTailJobSpec& spec() const { return spec_; }

 private:
  HeavyTailJobSpec spec_;
  std::vector<double> speed_weights_;
  Rng rng_;
};

}  // namespace mwp::workload
