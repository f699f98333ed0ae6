// Experiment Three (§5.3, Figures 6–7): heterogeneous workload —
// dynamic resource sharing vs static partitioning.
//
// The batch workload of Experiment One is joined by one constant-intensity
// transactional application whose maximum achievable relative performance
// is ≈0.66 at an allocation of ≈130,000 MHz (less than 9 nodes' CPU). Its
// per-instance memory demand is small enough that one instance fits on
// every node beside the three batch jobs, so the workloads compete only
// for CPU. Three configurations run the identical workload:
//   1. APC with dynamic sharing across all 25 nodes;
//   2. static partition: 9 nodes TX (fully satisfying it) + 16 nodes batch
//      under FCFS;
//   3. static partition: 6 nodes TX (insufficient) + 19 nodes batch.
// Job submissions are paced to overload the batch partition mid-run and
// ease off near the end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "batch/job_metrics.h"
#include "web/transactional_app.h"

namespace mwp::obs {
class TraceRecorder;
}  // namespace mwp::obs

namespace mwp {

enum class Experiment3Mode {
  kDynamicApc,   ///< APC, shared 25 nodes
  kStatic9Tx16Lr,
  kStatic6Tx19Lr,
};

const char* ToString(Experiment3Mode mode);

/// The three configurations Figures 6 and 7 compare, in column order.
inline constexpr Experiment3Mode kExperiment3Modes[] = {
    Experiment3Mode::kDynamicApc, Experiment3Mode::kStatic9Tx16Lr,
    Experiment3Mode::kStatic6Tx19Lr};

struct Experiment3Config {
  Experiment3Mode mode = Experiment3Mode::kDynamicApc;
  int num_nodes = 25;
  Seconds control_cycle = 600.0;
  Seconds duration = 65'000.0;
  /// Burst phase: submissions at this mean inter-arrival until `ease_time`,
  /// then at `slow_interarrival`.
  Seconds burst_interarrival = 180.0;
  Seconds slow_interarrival = 2'400.0;
  Seconds ease_time = 42'000.0;
  std::uint64_t seed = 11;

  // Transactional application operating point (§5.3): u = 0.66 at the
  // 130,000 MHz saturation; the stability fraction and arrival rate shape
  // the curve so that utility degrades gradually over the contended range —
  // u ≈ 0.53 when squeezed to ~97,500 MHz (what 25 nodes leave after 75
  // jobs) and u ≈ 0.50 at the 6-node partition's 93,600 MHz, mirroring the
  // separations Figure 6 shows.
  double tx_arrival_rate = 0.43;      ///< req/s of heavy requests, constant
  Seconds tx_response_goal = 1.0;     ///< τ
  Utility tx_max_utility = 0.66;
  MHz tx_saturation = 130'000.0;
  /// λ·c as a fraction of the saturation allocation (16,250 MHz here).
  double tx_stability_fraction = 0.125;
  Megabytes tx_memory_per_instance = 1'000.0;

  /// Optional per-cycle trace sink (kDynamicApc mode only). Non-owning;
  /// must outlive the run.
  obs::TraceRecorder* trace = nullptr;
  /// Run identifier stamped into every recorded CycleTrace (schema v2);
  /// sweeps that share one recorder give each run a distinct id.
  std::string trace_run_id;
  /// Record full optimizer inputs + decisions for replay (src/replay).
  bool trace_full = false;
};

struct Experiment3Result {
  /// Figure 6: relative performance over time.
  TimeSeries tx_rp;
  TimeSeries batch_rp;  ///< average hypothetical RP of jobs in the system
  /// Figure 7: CPU allocation over time (MHz).
  TimeSeries tx_alloc;
  TimeSeries batch_alloc;
  std::vector<JobOutcomeRecord> outcomes;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
};

Experiment3Result RunExperiment3(const Experiment3Config& config);

/// The calibrated transactional application spec used by the experiment.
TransactionalAppSpec MakeExperiment3TxSpec(const Experiment3Config& config,
                                           AppId id);

}  // namespace mwp
