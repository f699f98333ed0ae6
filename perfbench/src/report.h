// Metrics and correctness checks computed from run records, and the
// benchmark's output: a readable report followed by one JSON line.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "drivers.h"

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< observations the value summarizes
};

/// Set-up measured several times per run.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
};

/// Appends `run`'s samples to `total` and adds up its counters: the pooled
/// record of a run's ensemble of instances.
void Accumulate(RunRecord& total, const RunRecord& run);

/// Which control cycles a workload's cycle cost is taken over.
enum class CycleClass {
  kSearch,  ///< cycles that ran the optimizer's search
  kFull,    ///< every full-cycle decision (storm, where most short-cut)
};

/// End-to-end metrics of an untraced ensemble.
std::vector<Metric> EndToEndMetrics(const SetupTimes& setup,
                                    const RunRecord& run, CycleClass cycles);

/// Per-layer metrics of a traced ensemble of `instances`; the overhead is
/// traced minus untraced wall time of instance 0.
std::vector<Metric> PerLayerMetrics(const SetupTimes& setup,
                                    const RunRecord& traced, int instances,
                                    double trace_overhead_s);

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Invariants every run of `workload` must satisfy.
std::vector<Check> RunChecks(const std::string& workload, const RunRecord& run);

/// Decisions attempted (control cycles plus event decisions) and failed
/// (infeasible, replay diff, or event shed by the inbox).
std::size_t Attempted(const RunRecord& run);
std::size_t Failed(const RunRecord& run);

/// The final line of output: {"correct","attempted","failed","metrics"}.
std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics);

/// Shortest text that reads back as exactly `value`.
std::string FormatNumber(double value);

}  // namespace perfbench
