// Experiment Two (§5.2, Figures 3–5): APC vs EDF vs FCFS on a heterogeneous
// batch-only workload.
//
// Jobs draw a relative goal factor from {1.3, 2.5, 4.0} with probabilities
// {10%, 30%, 60%} and a (min execution time, max speed) shape from
// {(9,000 s, 3,900 MHz), (17,600 s, 1,560 MHz), (600 s, 2,340 MHz)} with
// probabilities {10%, 40%, 50%}. Jobs are submitted with exponential
// inter-arrival times (mean swept 400 s … 50 s) until 800 have completed.
// Placement-change costs are not charged (the paper counts but does not
// charge them in this experiment).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/job_metrics.h"
#include "sched/baseline_scheduler.h"

namespace mwp::obs {
class TraceRecorder;
}  // namespace mwp::obs

namespace mwp {

enum class SchedulerKind { kApc, kEdf, kFcfs };

const char* ToString(SchedulerKind kind);

struct Experiment2Config {
  int num_nodes = 25;
  int completed_jobs_target = 800;
  Seconds mean_interarrival = 200.0;
  Seconds control_cycle = 600.0;
  SchedulerKind scheduler = SchedulerKind::kApc;
  std::uint64_t seed = 7;
  /// Hard stop as a multiple of target * mean inter-arrival time.
  double horizon_factor = 30.0;
  /// APC comparison tolerance (0 = library default); the tie-breaking
  /// ablation sweeps this.
  double apc_tie_tolerance = 0.0;
  /// Optional per-cycle trace sink (APC mode only — the baseline schedulers
  /// run no control cycles). Non-owning; must outlive the run.
  obs::TraceRecorder* trace = nullptr;
  /// Run identifier stamped into every recorded CycleTrace (schema v2);
  /// sweeps that share one recorder give each run a distinct id.
  std::string trace_run_id;
  /// Record full optimizer inputs + decisions for replay (src/replay).
  bool trace_full = false;
};

struct Experiment2Result {
  /// First `completed_jobs_target` completions, by completion time.
  std::vector<JobOutcomeRecord> outcomes;
  /// Figure 3's y-value: fraction of those jobs meeting their deadline.
  double deadline_satisfaction = 0.0;
  /// Figure 4's y-value: suspends + resumes + migrations.
  int disruptive_changes = 0;
  SchedulerChangeCounts changes;
  Seconds end_time = 0.0;
};

Experiment2Result RunExperiment2(const Experiment2Config& config);

/// The paper's inter-arrival sweep (Figures 3 and 4; Figure 5 shows its
/// 200 s and 50 s points).
inline constexpr Seconds kExperiment2Interarrivals[] = {
    400.0, 350.0, 300.0, 250.0, 200.0, 150.0, 100.0, 50.0};

/// One inter-arrival time of the sweep: the three schedulers' runs on the
/// same workload sequence.
struct Experiment2Point {
  Seconds mean_interarrival = 0.0;
  std::array<Experiment2Result, 3> runs;  ///< indexed by SchedulerKind

  const Experiment2Result& at(SchedulerKind kind) const {
    return runs[static_cast<std::size_t>(kind)];
  }
};

/// Runs `base` once per (inter-arrival, scheduler) pair: FCFS, EDF, then APC
/// at each inter-arrival in the given order. When `base.trace` is set, the
/// APC runs record into it in sweep order, each tagged with the run id
/// "ia<inter-arrival>".
std::vector<Experiment2Point> RunExperiment2Sweep(
    const Experiment2Config& base, const std::vector<Seconds>& interarrivals);

}  // namespace mwp
