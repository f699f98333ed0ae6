// Lock-cheap metrics registry: counters, gauges and log-scale histograms.
//
// The control loop (§3.1) is a long-running feedback system; watching it run
// means cheap always-on instruments, not printf archaeology. The registry
// hands out stable pointers to named instruments; every update after lookup
// is a relaxed atomic operation — no lock is taken on the hot path, so an
// instrumented optimizer sweep costs the same as an uninstrumented one to
// within measurement noise. Registration (the name → instrument map) is the
// only locked operation and happens once per instrument.
//
// Time never enters this module: instruments carry no timestamps, and any
// time-valued observation (e.g. solver seconds) comes from the simulation
// clock or from obs::Stopwatch (stopwatch.h), the tree's one host-clock
// read. That keeps the registry outside the determinism auditor's clock
// rule (AUD-D3) by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace mwp::obs {

/// Monotone event count. All operations are relaxed atomics: counters are
/// aggregates read after the fact, never synchronization points.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (utilization, queue depth, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout for Histogram: fixed log-scale bounds
/// `first_bound * growth^i` for i in [0, num_bounds), plus an implicit
/// overflow bucket. The layout is fixed at registration so concurrent
/// Observe calls never resize anything.
struct HistogramOptions {
  double first_bound = 1e-6;  ///< inclusive upper bound of bucket 0
  double growth = 2.0;        ///< geometric bound growth, > 1
  int num_bounds = 40;        ///< finite buckets; bucket num_bounds = overflow
};

/// Fixed-bucket log-scale histogram. Observe is lock-free: one binary search
/// over the immutable bounds, one relaxed bucket increment, one CAS loop for
/// the running sum.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options);

  void Observe(double value);

  std::uint64_t count() const;
  double sum() const;
  /// Estimated q-quantile (q in [0, 1], clamped) from the bucket counts:
  /// the target rank q * count() is located by cumulative count, then
  /// interpolated linearly within its bucket's [lower, upper] bound range
  /// (the first bucket's lower bound is 0). Observations in the overflow
  /// bucket are only known to exceed the last finite bound, so a quantile
  /// landing there returns that bound (a lower-bound estimate). NaN when
  /// the histogram is empty.
  double Quantile(double q) const;
  /// Buckets including the overflow bucket (== options.num_bounds + 1).
  int num_buckets() const { return static_cast<int>(bounds_.size()) + 1; }
  /// Inclusive upper bound of bucket `i`; +infinity for the overflow bucket.
  double UpperBound(int i) const;
  std::uint64_t BucketCount(int i) const;
  const HistogramOptions& options() const { return options_; }

 private:
  HistogramOptions options_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> bucket_counts_;
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every registered instrument, for exporters.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;          ///< finite bounds, ascending
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  };
  std::vector<CounterValue> counters;      ///< sorted by name
  std::vector<GaugeValue> gauges;          ///< sorted by name
  std::vector<HistogramValue> histograms;  ///< sorted by name
};

/// Histogram::Quantile over a snapshot's bucket copy (same estimator; see
/// the member for semantics). Exporters use this to stamp p50/p95/p99 into
/// the metrics JSONL without touching the live instrument.
double HistogramQuantile(const MetricsSnapshot::HistogramValue& histogram,
                         double q);

/// Name → instrument registry. Lookup/registration takes the registry mutex;
/// the returned references are stable for the registry's lifetime, so
/// callers resolve once and then update lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. A name registers exactly one
  /// instrument kind; re-registering under a different kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `options` applies only to the creating call; later lookups of an
  /// existing histogram ignore it.
  Histogram& histogram(const std::string& name, HistogramOptions options = {});

  MetricsSnapshot Snapshot() const;

 private:
  void CheckNameFree(const std::string& name) const MWP_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MWP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ MWP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      MWP_GUARDED_BY(mu_);
};

}  // namespace mwp::obs
