// Trace-driven replay of recorded APC control cycles.
//
// A schema-v2 trace recorded with --trace-full freezes each cycle's complete
// optimizer input (cluster, node health, jobs, transactional demand, solver
// options, constraints) next to the decision the controller committed. The
// replay harness reconstructs a PlacementSnapshot from the frozen input,
// re-runs PlacementOptimizer + LoadDistributor on it, and diffs the replayed
// decision against the recorded one — regression detection at the placement
// level, not just the metric level:
//
//   * placement delta by kind (start/stop/suspend/resume/migrate), computed
//     with the controller's own DiffPlacements and job-status predicates;
//   * RP-vector drift: max |replayed − recorded| over the sorted utility
//     vector, compared against a configurable tolerance;
//   * lexicographic-objective verdict (better/equal/worse) under the
//     recording run's tie tolerance.
//
// The optimizer is deterministic for any search_threads value and the
// incremental evaluator is bit-identical to the from-scratch path, so a
// replay in the same build reproduces the recorded placements exactly and
// reports 0 cell diffs and 0 RP drift. Across commits, a drift or placement
// delta means a behaviour change in the solver stack — the golden traces
// under tests/data/golden_traces/ gate on exactly that.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/placement_optimizer.h"
#include "core/snapshot.h"
#include "replay/trace_reader.h"

namespace mwp::replay {

struct ReplayOptions {
  /// Max |replayed − recorded| over sorted utility vectors (and relative
  /// drift over per-entity allocations) treated as agreement. Same-build
  /// replay is bit-exact, so the tight default holds; cross-compiler golden
  /// replay loosens it (placement diffs must be exactly zero regardless).
  double rp_tolerance = 1e-9;
  /// Optimizer lanes for the re-run; decisions are identical for any value.
  int search_threads = 1;

  /// Offline-tuning overrides (replay_apc --override-*). When set, the
  /// re-run deliberately diverges from the recording configuration — the
  /// replay becomes a what-if experiment, so diffs against the recorded
  /// decision are reported but never counted as regressions.
  std::optional<double> override_tie_tolerance;
  std::optional<int> override_sweeps;
  /// Cell size for a sharded re-solve; 0 forces a monolithic re-solve of a
  /// sharded recording.
  std::optional<int> override_cell_size;

  bool has_overrides() const {
    return override_tie_tolerance.has_value() || override_sweeps.has_value() ||
           override_cell_size.has_value();
  }
};

/// Lexicographic-objective comparison of the replayed decision against the
/// recorded one, under the recording run's tie tolerance.
enum class Verdict { kEqual, kBetter, kWorse };

const char* ToString(Verdict verdict);

/// Owning reconstruction of one cycle's optimizer input: the snapshot plus
/// every object its views point at (cluster with health applied, job
/// profiles, transactional apps, constraints).
class ReconstructedCycle {
 public:
  explicit ReconstructedCycle(const obs::CycleInputRecord& input);
  ReconstructedCycle(const ReconstructedCycle&) = delete;
  ReconstructedCycle& operator=(const ReconstructedCycle&) = delete;

  const PlacementSnapshot& snapshot() const { return *snapshot_; }

  /// The recording run's solver configuration, with the given lane count.
  /// Throws std::logic_error (MWP_CHECK_MSG, naming the key) when the trace
  /// records a search-loop bound, evaluation budget, sampling grid or
  /// bargaining mode other than this build's constant.
  PlacementOptimizer::Options OptimizerOptions(int search_threads = 1) const;

  /// Raw recorded solver options (includes the sharded-optimizer fields:
  /// cell_size 0 means the recording solved monolithically).
  const obs::TraceSolverOptions& solver_options() const { return options_; }

 private:
  ClusterSpec cluster_;
  std::vector<std::unique_ptr<JobProfile>> profiles_;
  std::vector<std::unique_ptr<TransactionalApp>> tx_apps_;
  obs::TraceSolverOptions options_;
  std::optional<PlacementSnapshot> snapshot_;
};

/// Replayed-vs-recorded diff of one cycle.
struct CycleReplayDiff {
  int cycle = 0;
  std::string run_id;
  /// False when the cycle carries no recorded input (not a --trace-full
  /// record); such cycles are skipped, never failed.
  bool replayed = false;
  /// True when the recorded decision does not fit the recorded input
  /// (out-of-range cells, wrong vector lengths) — always a regression.
  bool shape_mismatch = false;
  /// Placement-matrix cells where the replayed decision differs.
  int placement_cell_diffs = 0;
  /// Placement delta by kind: the reconfiguration actions that would turn
  /// the recorded placement into the replayed one (all zero on agreement).
  int starts = 0;
  int stops = 0;
  int suspends = 0;
  int resumes = 0;
  int migrations = 0;
  /// Max |replayed − recorded| over the sorted utility vector.
  double rp_drift = 0.0;
  /// Max relative drift over per-entity allocation totals.
  double allocation_drift = 0.0;
  Verdict verdict = Verdict::kEqual;
  /// Human-readable per-cell / per-vector diff lines (populated only when
  /// something differs).
  std::vector<std::string> details;

  int total_change_delta() const {
    return starts + stops + suspends + resumes + migrations;
  }
  bool Regressed(const ReplayOptions& options) const;
};

struct ReplayReport {
  int total_cycles = 0;
  int replayed_cycles = 0;
  int skipped_cycles = 0;  ///< cycles without recorded input
  int regressed_cycles = 0;
  int better_cycles = 0;
  int worse_cycles = 0;
  int cycles_with_placement_diff = 0;
  double max_rp_drift = 0.0;
  double max_allocation_drift = 0.0;
  std::vector<CycleReplayDiff> cycles;

  bool ok() const { return regressed_cycles == 0; }
};

/// Re-runs the solver on one recorded cycle and diffs the decisions.
CycleReplayDiff ReplayCycle(const obs::CycleTrace& trace,
                            const ReplayOptions& options);

/// Replays every cycle of a parsed trace.
ReplayReport ReplayTrace(const ParsedTrace& trace,
                         const ReplayOptions& options);

/// Writes the per-cycle diff report: a summary block, plus detail lines for
/// every regressed cycle (and, when `verbose`, for agreeing cycles too).
void WriteReport(std::ostream& os, const ReplayReport& report,
                 const ReplayOptions& options, bool verbose = false);

}  // namespace mwp::replay
