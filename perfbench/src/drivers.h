// Benchmark-side drivers for the three workloads.
//
// The library's own harnesses (RunExperiment1, RunScenario, the event
// adapters) hide the controller and pick their lane counts from the
// hardware, so the benchmark drives the public controller and service API
// itself: it schedules the same simulation events in the same order, calls
// the layers one at a time through a Tracer, and pins every search to one
// lane. tests/driver_equivalence_test.cc proves each driver makes the same
// decisions as the library harness it replaces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/apc_controller.h"
#include "measure.h"
#include "workload/scenario.h"

namespace perfbench {

/// A deliberately planted fault, used to prove the correctness checks fire.
enum class Inject {
  kNone,
  kInfeasible,  ///< the feasibility check sees a job placed twice
  kTraceByte,   ///< one byte of the exported trace is flipped before parsing
};

/// Seed of instance `k` of a run's ensemble: instance 0 runs at the run's
/// seed itself; the others at SplitMix64 mixes of it, so runs at nearby
/// seeds share no instance.
std::uint64_t InstanceSeed(std::uint64_t seed, int k);

struct DriverOptions {
  std::uint64_t seed = 42;
  /// Scaled-down instance of the workload (smoke test, equivalence test).
  bool smoke = false;
  Inject inject = Inject::kNone;
  /// Stamped into recorded traces.
  std::string run_id;
};

/// One control cycle, timed from outside. Workloads that drive the phase
/// API time capture, solve and commit separately; storm's cycles run inside
/// the service's Pump, whose time is the cycle's latency.
struct CycleSample {
  bool phased = false;
  double capture_s = 0.0;
  double solve_s = 0.0;
  double commit_s = 0.0;
  double latency_s = 0.0;
  bool search = false;  ///< the optimizer searched (no shortcut)
  int evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t distribute_calls = 0;
  int cross_cell_migrations = 0;
  std::vector<double> cell_solve_s;  ///< CycleSolution::cell_solver_seconds
};

/// The decision on one job arrival.
struct DispatchSample {
  double seconds = 0.0;
  std::size_t history_jobs = 0;  ///< job-queue size: every job ever submitted
  int placed = -1;               ///< jobs started; counted in traced runs only
};

/// Traced-run probe calls on each search cycle's committed placement.
struct ProbeTotals {
  std::uint64_t distribute_timed = 0;  ///< timed Distribute calls
  double distribute_s = 0.0;
  std::uint64_t flow_probes = 0;  ///< max-flow probes of the timed calls
  std::vector<double> evaluate_cold_s;
  std::vector<double> evaluate_warm_s;
};

/// Event-driven service activity (storm).
struct ServiceTotals {
  std::uint64_t published = 0;  ///< Publish calls
  std::uint64_t pushed = 0;     ///< EventInbox::pushed()
  std::uint64_t shed = 0;       ///< EventInbox::dropped()
  std::uint64_t batches = 0;
  std::uint64_t quick = 0;
  std::uint64_t repairs = 0;
  std::uint64_t full_cycles = 0;
  std::uint64_t deduped = 0;
};

/// Export → parse → replay of the run's trace (storm).
struct ReplayTotals {
  int runs = 0;  ///< export → parse → replay passes (one per storm instance)
  double export_s = 0.0;
  double parse_s = 0.0;
  double resolve_s = 0.0;
  std::size_t trace_bytes = 0;
  int cycles = 0;
  int regressed = 0;
  bool parsed = false;
  bool rewrite_identical = false;
  std::string error;
};

struct Outcomes {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t goal_missed = 0;  ///< completed after their goal
  double rp_sum = 0.0;          ///< achieved RP over completed jobs
  int tx_samples = 0;
  int tx_missed = 0;  ///< tx response-time samples above goal
  int disruptive = 0;  ///< suspends + resumes + migrations
  double peak_avg_rp = 0.0;  ///< max per-cycle average hypothetical RP
};

/// Everything one timed run measured.
struct RunRecord {
  double wall_s = 0.0;  ///< timed section, benchmark's own work excluded
  double cpu_s = 0.0;
  double steal_s = 0.0;
  std::vector<CycleSample> cycles;
  std::vector<DispatchSample> dispatches;
  std::vector<double> repair_s;  ///< fault decisions (storm)
  int cycles_checked = 0;
  int infeasible_cycles = 0;
  Outcomes outcomes;
  ServiceTotals service;
  ReplayTotals replay;
  ProbeTotals probes;
  std::uint64_t workload_hash = 0;
  /// Resolved lanes of the optimizers the controller builds (must be 1).
  int search_lanes = 0;
  int cell_lanes = 0;
};

/// One workload, set up and ready to run. Construction is the set-up; Run
/// is the timed section; Finish collects outcomes and runs the checks.
class WorkloadInstance {
 public:
  virtual ~WorkloadInstance() = default;
  /// Seconds of set-up spent generating the input stream.
  virtual double generate_s() const = 0;
  /// Runs the simulation to its fixed horizon. The caller times the call;
  /// `tracer` times every call into a layer and fills `record`.
  virtual void Run(Tracer& tracer, RunRecord& record) = 0;
  /// After Run, outside the timed section: outcomes and end-of-run checks
  /// (storm also times its trace export, parse and replay here).
  virtual void Finish(Tracer& tracer, RunRecord& record) = 0;
};

/// `trace` (optional) receives the controller's cycle traces.
std::unique_ptr<WorkloadInstance> MakeExp1(const DriverOptions& options,
                                           mwp::obs::TraceRecorder* trace);
std::unique_ptr<WorkloadInstance> MakeAlibaba(const DriverOptions& options,
                                              mwp::obs::TraceRecorder* trace);
std::unique_ptr<WorkloadInstance> MakeStorm(const DriverOptions& options,
                                            mwp::obs::TraceRecorder* trace);
/// The storm world driven through the library's event adapters instead of
/// the timed publish/pump (the equivalence test's reference).
std::unique_ptr<WorkloadInstance> MakeStormReference(
    const DriverOptions& options, mwp::obs::TraceRecorder* trace);

/// The scenario alibaba-500 runs (50 nodes and two hours when smoke).
mwp::workload::ScenarioSpec AlibabaBenchSpec(const DriverOptions& options);

// --- shared driver pieces (drivers.cc) ------------------------------------

/// Lane count every benchmark search runs at.
inline constexpr int kLanes = 1;

/// Controller configuration with every search pinned to kLanes lanes.
mwp::ApcController::Config OneLaneConfig();

/// What a timed cycle needs besides the controller.
struct CycleContext {
  const mwp::ApcController::Config* config = nullptr;
  bool evaluate_probe = false;  ///< also probe PlacementEvaluator::Evaluate
  Inject inject = Inject::kNone;
};

/// One control cycle through CaptureCycle/SolveCycle/CommitCycle, each
/// phase timed; checks the solved placement's feasibility and, in a traced
/// run, probes Distribute/Evaluate on it before the commit.
void TimedCycle(mwp::ApcController& controller, mwp::Simulation& sim,
                const CycleContext& context, Tracer& tracer,
                RunRecord& record);

/// The arrival decision (ApcController::OnJobSubmitted), timed; in a traced
/// run also counts the jobs it started.
void TimedDispatch(mwp::ApcController& controller, mwp::Simulation& sim,
                   mwp::JobQueue& queue, Tracer& tracer, RunRecord& record);

/// Resolved lanes of the optimizers `config` makes the controller build on
/// `cluster`.
void RecordLanes(const mwp::ApcController::Config& config,
                 const mwp::ClusterSpec& cluster, RunRecord& record);

/// Job outcomes of a finished run (completion RP, goal misses) plus the
/// controller's per-cycle tx samples against each app's goal.
void RecordOutcomes(const mwp::JobQueue& queue,
                    const mwp::ApcController& controller,
                    RunRecord& record);

}  // namespace perfbench
