// Per-control-cycle trace records for the APC loop.
//
// A CycleTrace is the observable state of one control cycle (§3.1): the
// sorted relative-performance vector before and after the solve — the
// paper's optimization objective, so fairness is auditable per cycle, not
// just in final tables — plus solver effort (evaluations, cache activity,
// distributor calls, solver wall time), the placement changes by kind, and
// the node-health summary the fault overlay exposes. Controllers append
// records to a TraceRecorder; exporters (trace_export.h) serialize the
// collected run.
//
// All times are simulation seconds except solver_seconds and
// cell_solver_seconds, which obs::Stopwatch measures (stopwatch.h; host
// wall time by intent).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"

namespace mwp::obs {

/// Cluster health at the instant the cycle's snapshot was taken (the PR-2
/// fault overlay's view: online/degraded/offline, health-scaled capacity).
struct NodeHealthSummary {
  int online = 0;
  int degraded = 0;
  int offline = 0;
  MHz available_cpu = 0.0;  ///< health-scaled capacity over all nodes
  MHz nominal_cpu = 0.0;    ///< fault-free capacity of the same nodes
};

// --- full optimizer input (schema v2, recorded under `trace_full`) --------
//
// The replay harness (src/replay) reconstructs a PlacementSnapshot from
// these records and re-runs the solver, so every field the optimizer reads
// is frozen here. All values are copied out of the snapshot the controller
// actually optimized — not re-derived — so a replay in the same build is
// bit-exact.

/// One node's capacity and captured health.
struct TraceNodeInput {
  int num_cpus = 1;
  MHz cpu_speed = 0.0;        ///< per-processor speed
  Megabytes memory = 0.0;
  int state = 0;              ///< NodeState as int (0 online, 1 degraded, 2 offline)
  double speed_factor = 1.0;  ///< degraded-CPU multiplier

  bool operator==(const TraceNodeInput&) const = default;
};

/// One stage of a job's resource usage profile (JobStage).
struct TraceStageInput {
  Megacycles work = 0.0;
  MHz max_speed = 0.0;
  MHz min_speed = 0.0;
  Megabytes memory = 0.0;

  bool operator==(const TraceStageInput&) const = default;
};

/// One frozen JobView plus the profile it points at.
struct TraceJobInput {
  AppId id = kInvalidApp;
  Seconds submit_time = 0.0;      ///< JobGoal
  Seconds desired_start = 0.0;
  Seconds completion_goal = 0.0;
  Megacycles work_done = 0.0;
  int status = 0;                 ///< JobStatus as int
  NodeId current_node = kInvalidNode;
  Seconds overhead_until = 0.0;
  Seconds place_overhead = 0.0;
  Seconds migrate_overhead = 0.0;
  Megabytes memory = 0.0;
  MHz max_speed = 0.0;
  MHz min_speed = 0.0;
  std::vector<TraceStageInput> stages;

  bool operator==(const TraceJobInput&) const = default;
};

/// One frozen TxView plus the spec behind it.
struct TraceTxInput {
  AppId id = kInvalidApp;
  std::string name;
  Megabytes memory = 0.0;             ///< per instance
  Seconds response_time_goal = 0.0;
  Megacycles demand_per_request = 0.0;
  Seconds min_response_time = 0.0;
  MHz saturation = 0.0;
  int max_instances = 0;
  double arrival_rate = 0.0;
  std::vector<NodeId> current_nodes;

  bool operator==(const TraceTxInput&) const = default;
};

/// The solver configuration of the recording run (PlacementOptimizer,
/// PlacementEvaluator and LoadDistributor options that shape the search).
/// search_threads is deliberately absent: the chosen placement is identical
/// for every lane count, so replay may pick its own.
///
/// Six keys are pinned to build constants: the three search-loop bounds
/// (PlacementOptimizer::kMaxChangesPerNode, kMaxWishesTried,
/// kMaxMigrationsTried), max_evaluations (0, no budget), grid (empty, the
/// default sampling grid) and batch_aggregate (true, the batch workload
/// bargains as one entity). The controller writes the constants and replay
/// refuses a trace carrying any other value; the keys stay on the wire so
/// recorded traces keep their bytes.
struct TraceSolverOptions {
  int max_sweeps = 2;
  int max_changes_per_node = 8;
  int max_wishes_tried = 8;
  int max_migrations_tried = 3;
  int max_evaluations = 0;
  double tie_tolerance = 0.02;
  std::vector<double> grid;  ///< empty = library default sampling grid
  double level_tolerance = 1e-4;
  double probe_delta = 1e-3;
  int bisection_iters = 48;
  bool batch_aggregate = true;
  /// Sharded-optimizer configuration (0 cell_size = monolithic solve; the
  /// three fields are then omitted from exports, keeping pre-sharding
  /// traces byte-identical).
  int cell_size = 0;
  std::uint64_t partition_seed = 0;
  int max_cross_cell_moves = 8;
  /// Fairness objective (FairnessObjectiveKind wire id; 0 = the default
  /// lexicographic max-min). When 0 the five fields are omitted from
  /// exports, keeping pre-objective traces byte-identical.
  int objective = 0;
  double karma_weight = 0.5;
  double karma_cap = 8.0;
  double karma_earn_rate = 1.0;
  double pf_epsilon = 1e-6;

  bool operator==(const TraceSolverOptions&) const = default;
};

/// One pinning constraint: `app` may only run on `nodes`.
struct TracePin {
  AppId app = kInvalidApp;
  std::vector<NodeId> nodes;

  bool operator==(const TracePin&) const = default;
};

/// The full optimizer input of one control cycle.
struct CycleInputRecord {
  Seconds now = 0.0;
  Seconds control_cycle = 0.0;
  std::vector<TraceNodeInput> nodes;
  std::vector<TraceJobInput> jobs;
  std::vector<TraceTxInput> tx_apps;
  TraceSolverOptions options;
  std::vector<TracePin> pins;
  std::vector<std::pair<AppId, AppId>> separations;
  /// Per-entity Karma credits frozen into the cycle's snapshot (empty for
  /// non-Karma objectives; omitted from exports when empty so pre-objective
  /// traces stay byte-identical). Replaying a trace with these restores the
  /// exact credit bias the recorded solve saw.
  std::vector<double> fairness_credits;

  bool operator==(const CycleInputRecord&) const = default;
};

/// One non-zero cell of the decided placement matrix.
struct TracePlacementCell {
  int entity = 0;
  int node = 0;
  int count = 0;

  bool operator==(const TracePlacementCell&) const = default;
};

/// The committed decision of one control cycle: the optimizer's placement
/// (sparse, row-major cell order) and the distributor's per-entity
/// allocation totals under it.
struct CycleDecisionRecord {
  std::vector<TracePlacementCell> placement;
  std::vector<MHz> allocations;

  bool operator==(const CycleDecisionRecord&) const = default;
};

struct CycleTrace {
  /// Identifier of the producing run. Sweep exports concatenate several
  /// runs into one file; records from one run share a run_id so joins
  /// against printed per-run tables are mechanical (schema v2).
  std::string run_id;
  int cycle = 0;       ///< 0-based control-cycle sequence number
  Seconds time = 0.0;  ///< simulation time of the cycle

  /// Sorted utility vector of the incumbent placement (before the solve)
  /// and of the committed decision — the lexicographic objective's operand.
  std::vector<Utility> rp_before;
  std::vector<Utility> rp_after;

  /// Mean / min hypothetical RP over incomplete jobs; NaN when no jobs.
  double avg_job_rp = 0.0;
  double min_job_rp = 0.0;

  int num_jobs = 0;
  int running_jobs = 0;
  int queued_jobs = 0;
  int suspended_jobs = 0;

  MHz batch_allocation = 0.0;
  MHz tx_allocation = 0.0;
  double cluster_utilization = 0.0;

  // Placement changes by kind (includes quick-dispatch actions folded into
  // the cycle, mirroring CycleStats).
  int starts = 0;
  int stops = 0;
  int suspends = 0;
  int resumes = 0;
  int migrations = 0;
  int failed_operations = 0;

  // Solver effort.
  int evaluations = 0;
  bool shortcut = false;
  Seconds solver_seconds = 0.0;
  /// Hypothetical-RPF column cache activity during this cycle's solve
  /// (the PR-1 evaluation cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// LoadDistributor::Distribute calls during this cycle's solve.
  std::uint64_t distribute_calls = 0;

  /// Sharded solve (0 = monolithic; the three fields are then omitted from
  /// exports): cells solved, accepted cross-cell job migrations, and the
  /// per-cell solve wall time (obs::Stopwatch, like solver_seconds).
  int num_cells = 0;
  int cross_cell_migrations = 0;
  std::vector<Seconds> cell_solver_seconds;

  /// What caused this cycle: "" = periodic tick (the field is then omitted
  /// from exports, so pre-service traces re-export byte-identically);
  /// event-driven cycles carry the src/svc trigger tag ("event", ...).
  std::string trigger;

  NodeHealthSummary node_health;

  /// Per transactional app, registration order.
  std::vector<Utility> tx_utilities;
  std::vector<MHz> tx_allocations;

  /// Full optimizer input and committed decision, recorded only when the
  /// producer ran with full tracing (ApcController::Config::trace_full /
  /// the --trace-full flag). Either both are set or neither.
  std::optional<CycleInputRecord> input;
  std::optional<CycleDecisionRecord> decision;
};

/// Append-only collector of CycleTrace records. Mutex-guarded so several
/// simulations running in worker threads may share one recorder; within one
/// simulation the controller appends sequentially.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Record(CycleTrace trace);

  /// Copy of all records so far, in append order.
  std::vector<CycleTrace> Traces() const;
  std::size_t size() const;

 private:
  mutable Mutex mu_;
  std::vector<CycleTrace> traces_ MWP_GUARDED_BY(mu_);
};

}  // namespace mwp::obs
