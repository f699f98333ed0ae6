// Deterministic random number generation for workloads and experiments.
//
// All stochastic behaviour in the library flows through Rng so that every
// experiment is reproducible from a single seed. Distribution helpers mirror
// exactly what the paper's workload descriptions require: exponential
// inter-arrival times and discrete mixtures with given probabilities.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <random>
#include <span>
#include <vector>

#include "common/check.h"

namespace mwp {

class Rng {
 public:
  // audit: rng-engine-ok(the one seeded engine every draw flows through)
  using Engine = std::mt19937_64;

  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    MWP_CHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    MWP_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponentially distributed value with the given mean (not rate).
  double Exponential(double mean) {
    MWP_CHECK(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normally distributed value. A fresh distribution per call, so every
  /// draw consumes a fixed slice of the engine stream (no pair caching) and
  /// interleaving Normal with other helpers stays reproducible.
  double Normal(double mean, double stddev) {
    MWP_CHECK(stddev >= 0.0);
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Index drawn from a discrete distribution with the given (unnormalized)
  /// weights. Used for the paper's "{10%, 30%, 60%}"-style job mixtures.
  std::size_t Discrete(std::span<const double> weights) {
    MWP_CHECK(!weights.empty());
    std::discrete_distribution<std::size_t> dist(weights.begin(), weights.end());
    return dist(engine_);
  }

  std::size_t Discrete(std::initializer_list<double> weights) {
    std::vector<double> w(weights);
    return Discrete(std::span<const double>(w));
  }

  /// Derive an independent child generator; used to give each workload
  /// source its own stream so that adding a source does not perturb others.
  Rng Fork() { return Rng(engine_()); }

  Engine& engine() { return engine_; }

 private:
  Engine engine_;
};

}  // namespace mwp
