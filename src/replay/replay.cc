#include "replay/replay.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "batch/job.h"
#include "common/check.h"
#include "core/constraints.h"
#include "core/sharded_optimizer.h"

namespace mwp::replay {
namespace {

/// Detail lines are capped per cycle so a wholesale divergence (every cell
/// different) still produces a readable report.
constexpr std::size_t kMaxDetailLines = 16;

void AddDetail(CycleReplayDiff& diff, std::string line) {
  if (diff.details.size() < kMaxDetailLines) {
    diff.details.push_back(std::move(line));
  }
}

/// Sanity-checks the recorded input/decision shape before reconstruction;
/// a trace edited by hand (or produced by a buggy exporter) must be
/// reported, not crash the harness through an MWP_CHECK.
bool ValidInputShape(const obs::CycleInputRecord& in,
                     const obs::CycleDecisionRecord& decision,
                     CycleReplayDiff& diff) {
  const int num_nodes = static_cast<int>(in.nodes.size());
  const int num_entities =
      static_cast<int>(in.jobs.size() + in.tx_apps.size());
  if (num_nodes <= 0) {
    AddDetail(diff, "input has no nodes");
    return false;
  }
  if (in.control_cycle <= 0.0) {
    AddDetail(diff, "input control_cycle is not positive");
    return false;
  }
  for (const obs::TraceNodeInput& node : in.nodes) {
    if (node.state < static_cast<int>(NodeState::kOnline) ||
        node.state > static_cast<int>(NodeState::kOffline)) {
      AddDetail(diff, "node state " + std::to_string(node.state) +
                          " is not a NodeState");
      return false;
    }
  }
  for (const obs::TraceJobInput& job : in.jobs) {
    if (job.stages.empty()) {
      AddDetail(diff, "job " + std::to_string(job.id) + " has no stages");
      return false;
    }
    if (job.status < static_cast<int>(JobStatus::kNotStarted) ||
        job.status > static_cast<int>(JobStatus::kCompleted)) {
      AddDetail(diff, "job " + std::to_string(job.id) + " status " +
                          std::to_string(job.status) + " is not a JobStatus");
      return false;
    }
    if (job.current_node < kInvalidNode || job.current_node >= num_nodes) {
      AddDetail(diff, "job " + std::to_string(job.id) +
                          " placed on out-of-range node " +
                          std::to_string(job.current_node));
      return false;
    }
  }
  for (const obs::TraceTxInput& tx : in.tx_apps) {
    for (const NodeId n : tx.current_nodes) {
      if (n < 0 || n >= num_nodes) {
        AddDetail(diff, "tx app " + std::to_string(tx.id) +
                            " instance on out-of-range node " +
                            std::to_string(n));
        return false;
      }
    }
  }
  for (const obs::TracePlacementCell& cell : decision.placement) {
    if (cell.entity < 0 || cell.entity >= num_entities || cell.node < 0 ||
        cell.node >= num_nodes || cell.count <= 0) {
      AddDetail(diff, "decision cell [" + std::to_string(cell.entity) + "," +
                          std::to_string(cell.node) + "," +
                          std::to_string(cell.count) +
                          "] out of range for input");
      return false;
    }
  }
  if (decision.allocations.size() != static_cast<std::size_t>(num_entities)) {
    AddDetail(diff, "decision allocations length " +
                        std::to_string(decision.allocations.size()) +
                        " != entities " + std::to_string(num_entities));
    return false;
  }
  // Objective mismatches are shape regressions, not crashes: a trace from a
  // newer build (or a hand-edited one) naming an objective this build does
  // not know cannot be faithfully re-solved.
  if (!ValidFairnessObjectiveId(in.options.objective)) {
    AddDetail(diff, "unknown fairness objective id " +
                        std::to_string(in.options.objective));
    return false;
  }
  if (!in.fairness_credits.empty() &&
      in.fairness_credits.size() != static_cast<std::size_t>(num_entities)) {
    AddDetail(diff, "credits length " +
                        std::to_string(in.fairness_credits.size()) +
                        " != entities " + std::to_string(num_entities));
    return false;
  }
  return true;
}

std::string FormatValue(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

}  // namespace

const char* ToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kEqual:
      return "equal";
    case Verdict::kBetter:
      return "better";
    case Verdict::kWorse:
      return "worse";
  }
  return "?";
}

ReconstructedCycle::ReconstructedCycle(const obs::CycleInputRecord& input)
    : options_(input.options) {
  std::vector<NodeSpec> nodes;
  nodes.reserve(input.nodes.size());
  for (const obs::TraceNodeInput& n : input.nodes) {
    nodes.push_back({n.num_cpus, n.cpu_speed, n.memory});
  }
  cluster_ = ClusterSpec(std::move(nodes));
  for (NodeId n = 0; n < cluster_.num_nodes(); ++n) {
    const obs::TraceNodeInput& rec =
        input.nodes[static_cast<std::size_t>(n)];
    switch (static_cast<NodeState>(rec.state)) {
      case NodeState::kOnline:
        break;
      case NodeState::kDegraded:
        cluster_.SetNodeDegraded(n, rec.speed_factor);
        break;
      case NodeState::kOffline:
        cluster_.SetNodeOffline(n);
        break;
    }
  }

  std::vector<JobView> jobs;
  jobs.reserve(input.jobs.size());
  profiles_.reserve(input.jobs.size());
  for (const obs::TraceJobInput& rec : input.jobs) {
    std::vector<JobStage> stages;
    stages.reserve(rec.stages.size());
    for (const obs::TraceStageInput& st : rec.stages) {
      stages.push_back({st.work, st.max_speed, st.min_speed, st.memory});
    }
    profiles_.push_back(std::make_unique<JobProfile>(std::move(stages)));
    JobView view;
    view.id = rec.id;
    view.profile = profiles_.back().get();
    view.goal = {rec.submit_time, rec.desired_start, rec.completion_goal};
    view.work_done = rec.work_done;
    view.status = static_cast<JobStatus>(rec.status);
    view.current_node = rec.current_node;
    view.overhead_until = rec.overhead_until;
    view.place_overhead = rec.place_overhead;
    view.migrate_overhead = rec.migrate_overhead;
    view.memory = rec.memory;
    view.max_speed = rec.max_speed;
    view.min_speed = rec.min_speed;
    jobs.push_back(view);
  }

  std::vector<TxView> txs;
  txs.reserve(input.tx_apps.size());
  tx_apps_.reserve(input.tx_apps.size());
  for (const obs::TraceTxInput& rec : input.tx_apps) {
    TransactionalAppSpec spec;
    spec.id = rec.id;
    spec.name = rec.name;
    spec.memory_per_instance = rec.memory;
    spec.response_time_goal = rec.response_time_goal;
    spec.demand_per_request = rec.demand_per_request;
    spec.min_response_time = rec.min_response_time;
    spec.saturation_allocation = rec.saturation;
    spec.max_instances = rec.max_instances;
    tx_apps_.push_back(std::make_unique<TransactionalApp>(std::move(spec)));
    TxView view;
    view.id = rec.id;
    view.app = tx_apps_.back().get();
    view.arrival_rate = rec.arrival_rate;
    view.memory = rec.memory;
    view.max_instances = rec.max_instances;
    view.current_nodes = rec.current_nodes;
    txs.push_back(std::move(view));
  }

  snapshot_.emplace(&cluster_, input.now, input.control_cycle,
                    std::move(jobs), std::move(txs));

  PlacementConstraints constraints;
  for (const obs::TracePin& pin : input.pins) {
    constraints.PinTo(pin.app, pin.nodes);
  }
  for (const auto& [a, b] : input.separations) {
    constraints.Separate(a, b);
  }
  snapshot_->set_constraints(std::move(constraints));
  // Recorded Karma credits restore the exact objective bias the recorded
  // solve saw, so replayed credit trajectories match the recording.
  if (!input.fairness_credits.empty()) {
    snapshot_->set_fairness_credits(input.fairness_credits);
  }
}

PlacementOptimizer::Options ReconstructedCycle::OptimizerOptions(
    int search_threads) const {
  // Six keys record values this build fixes; a trace carrying another value
  // asks for a search this build cannot run.
  const auto pinned = [](bool holds, const char* key) {
    MWP_CHECK_MSG(holds, "recorded " << key
                                     << " differs from this build's constant");
  };
  pinned(options_.max_changes_per_node ==
             PlacementOptimizer::kMaxChangesPerNode,
         "max_changes_per_node");
  pinned(options_.max_wishes_tried == PlacementOptimizer::kMaxWishesTried,
         "max_wishes_tried");
  pinned(options_.max_migrations_tried ==
             PlacementOptimizer::kMaxMigrationsTried,
         "max_migrations_tried");
  pinned(options_.max_evaluations == 0, "max_evaluations");
  pinned(options_.grid.empty(), "grid");
  pinned(options_.batch_aggregate, "batch_aggregate");

  PlacementOptimizer::Options options;
  options.max_sweeps = options_.max_sweeps;
  options.search_threads = search_threads;
  options.evaluator.tie_tolerance = options_.tie_tolerance;
  options.evaluator.distributor.level_tolerance = options_.level_tolerance;
  options.evaluator.distributor.probe_delta = options_.probe_delta;
  options.evaluator.distributor.bisection_iters = options_.bisection_iters;
  options.evaluator.objective.kind =
      static_cast<FairnessObjectiveKind>(options_.objective);
  options.evaluator.objective.karma_weight = options_.karma_weight;
  options.evaluator.objective.karma_cap = options_.karma_cap;
  options.evaluator.objective.karma_earn_rate = options_.karma_earn_rate;
  options.evaluator.objective.pf_epsilon = options_.pf_epsilon;
  return options;
}

bool CycleReplayDiff::Regressed(const ReplayOptions& options) const {
  if (!replayed) return false;
  if (shape_mismatch) return true;
  // An overridden re-run is expected to diverge from the recording; the diff
  // is the experiment's result, not a regression.
  if (options.has_overrides()) return false;
  return placement_cell_diffs > 0 || rp_drift > options.rp_tolerance ||
         allocation_drift > options.rp_tolerance;
}

CycleReplayDiff ReplayCycle(const obs::CycleTrace& trace,
                            const ReplayOptions& options) {
  CycleReplayDiff diff;
  diff.cycle = trace.cycle;
  diff.run_id = trace.run_id;
  if (!trace.input.has_value() || !trace.decision.has_value()) {
    return diff;  // not a --trace-full record: nothing to replay
  }
  diff.replayed = true;
  if (!ValidInputShape(*trace.input, *trace.decision, diff)) {
    diff.shape_mismatch = true;
    diff.verdict = Verdict::kWorse;
    return diff;
  }

  // The constructors' and solver's own checks define a valid node, job or
  // option set; a recorded value that fails one is a shape mismatch.
  std::optional<ReconstructedCycle> cycle;
  PlacementOptimizer::Result result;
  try {
    cycle.emplace(*trace.input);
    PlacementOptimizer::Options solver_options =
        cycle->OptimizerOptions(options.search_threads);
    if (options.override_tie_tolerance.has_value()) {
      solver_options.evaluator.tie_tolerance = *options.override_tie_tolerance;
    }
    if (options.override_sweeps.has_value()) {
      solver_options.max_sweeps = *options.override_sweeps;
    }
    // Re-solve the way the recording did (sharded when cell_size > 0) unless
    // an override picks a different decomposition; --threads drives the
    // search lanes of a monolithic solve and the cell lanes of a sharded one.
    ShardedPlacementOptimizer::Options sharded_options;
    sharded_options.cell_size = options.override_cell_size.value_or(
        cycle->solver_options().cell_size);
    sharded_options.partition_seed = cycle->solver_options().partition_seed;
    sharded_options.max_cross_cell_moves =
        cycle->solver_options().max_cross_cell_moves;
    sharded_options.cell_threads = options.search_threads;
    sharded_options.cell = solver_options;
    result = SolvePlacement(cycle->snapshot(), sharded_options).global;
  } catch (const std::logic_error& e) {
    diff.shape_mismatch = true;
    diff.verdict = Verdict::kWorse;
    AddDetail(diff, std::string("recorded input rejected: ") + e.what());
    return diff;
  }
  const PlacementSnapshot& snapshot = cycle->snapshot();

  // Recorded decision as a matrix over the reconstructed snapshot.
  PlacementMatrix recorded(snapshot.num_entities(), snapshot.num_nodes());
  for (const obs::TracePlacementCell& cell : trace.decision->placement) {
    recorded.at(cell.entity, cell.node) = cell.count;
  }

  for (int e = 0; e < snapshot.num_entities(); ++e) {
    for (int n = 0; n < snapshot.num_nodes(); ++n) {
      const int want = recorded.at(e, n);
      const int got = result.placement.at(e, n);
      if (want == got) continue;
      ++diff.placement_cell_diffs;
      AddDetail(diff, "entity " + std::to_string(e) + " node " +
                          std::to_string(n) + ": recorded=" +
                          std::to_string(want) + " replayed=" +
                          std::to_string(got));
    }
  }

  // Placement delta by kind: the actions that would turn the recorded
  // placement into the replayed one, classified with the controller's own
  // predicates (job removals are suspensions; additions of jobs recorded as
  // suspended are resumes).
  std::vector<bool> removal_is_suspend(
      static_cast<std::size_t>(snapshot.num_entities()), false);
  std::vector<bool> addition_is_resume(
      static_cast<std::size_t>(snapshot.num_entities()), false);
  for (int j = 0; j < snapshot.num_jobs(); ++j) {
    const std::size_t e = static_cast<std::size_t>(snapshot.EntityOfJob(j));
    removal_is_suspend[e] = true;
    addition_is_resume[e] = snapshot.job(j).status == JobStatus::kSuspended;
  }
  for (const PlacementChange& change :
       DiffPlacements(recorded, result.placement, removal_is_suspend,
                      addition_is_resume)) {
    switch (change.kind) {
      case PlacementChange::Kind::kStart:
        ++diff.starts;
        break;
      case PlacementChange::Kind::kStop:
        ++diff.stops;
        break;
      case PlacementChange::Kind::kSuspend:
        ++diff.suspends;
        break;
      case PlacementChange::Kind::kResume:
        ++diff.resumes;
        break;
      case PlacementChange::Kind::kMigrate:
        ++diff.migrations;
        break;
    }
  }

  // RP drift and lexicographic verdict against the recorded sorted vector.
  const std::vector<Utility> replayed_rp =
      RpVector(result.evaluation.entity_utilities);
  const std::vector<Utility>& recorded_rp = trace.rp_after;
  if (replayed_rp.size() != recorded_rp.size()) {
    diff.shape_mismatch = true;
    diff.verdict = Verdict::kWorse;
    AddDetail(diff, "rp_after length " + std::to_string(recorded_rp.size()) +
                        " != replayed " + std::to_string(replayed_rp.size()));
    return diff;
  }
  const double tie_tolerance = trace.input->options.tie_tolerance;
  for (std::size_t i = 0; i < replayed_rp.size(); ++i) {
    const double delta = replayed_rp[i] - recorded_rp[i];
    if (std::abs(delta) > diff.rp_drift) diff.rp_drift = std::abs(delta);
    if (diff.verdict == Verdict::kEqual && std::abs(delta) > tie_tolerance) {
      diff.verdict = delta > 0 ? Verdict::kBetter : Verdict::kWorse;
    }
  }
  if (diff.rp_drift > options.rp_tolerance) {
    AddDetail(diff,
              "max sorted-utility drift " + FormatValue(diff.rp_drift));
  }

  const std::vector<MHz>& replayed_alloc =
      result.evaluation.distribution.totals;
  const std::vector<MHz>& recorded_alloc = trace.decision->allocations;
  MWP_CHECK(replayed_alloc.size() == recorded_alloc.size());
  for (std::size_t e = 0; e < replayed_alloc.size(); ++e) {
    const double denom = std::max(1.0, std::abs(recorded_alloc[e]));
    const double rel = std::abs(replayed_alloc[e] - recorded_alloc[e]) / denom;
    if (rel > diff.allocation_drift) diff.allocation_drift = rel;
  }
  if (diff.allocation_drift > options.rp_tolerance) {
    AddDetail(diff, "max relative allocation drift " +
                        FormatValue(diff.allocation_drift));
  }
  return diff;
}

ReplayReport ReplayTrace(const ParsedTrace& trace,
                         const ReplayOptions& options) {
  ReplayReport report;
  report.total_cycles = static_cast<int>(trace.cycles.size());
  for (const obs::CycleTrace& t : trace.cycles) {
    CycleReplayDiff diff = ReplayCycle(t, options);
    if (!diff.replayed) {
      ++report.skipped_cycles;
    } else {
      ++report.replayed_cycles;
      if (diff.Regressed(options)) ++report.regressed_cycles;
      if (diff.verdict == Verdict::kBetter) ++report.better_cycles;
      if (diff.verdict == Verdict::kWorse) ++report.worse_cycles;
      if (diff.placement_cell_diffs > 0) ++report.cycles_with_placement_diff;
      report.max_rp_drift = std::max(report.max_rp_drift, diff.rp_drift);
      report.max_allocation_drift =
          std::max(report.max_allocation_drift, diff.allocation_drift);
    }
    report.cycles.push_back(std::move(diff));
  }
  return report;
}

void WriteReport(std::ostream& os, const ReplayReport& report,
                 const ReplayOptions& options, bool verbose) {
  os << "replay: " << report.replayed_cycles << "/" << report.total_cycles
     << " cycles replayed (" << report.skipped_cycles
     << " without recorded input)\n"
     << "  placement: " << report.cycles_with_placement_diff
     << " cycles with cell diffs\n"
     << "  rp drift: max " << report.max_rp_drift << " (tolerance "
     << options.rp_tolerance << ")\n"
     << "  allocation drift: max " << report.max_allocation_drift << "\n"
     << "  verdicts: " << report.better_cycles << " better, "
     << report.worse_cycles << " worse, "
     << report.replayed_cycles - report.better_cycles - report.worse_cycles
     << " equal\n"
     << "  result: "
     << (report.ok() ? "OK" : std::to_string(report.regressed_cycles) +
                                  " regressed cycle(s)")
     << "\n";
  if (options.has_overrides()) {
    os << "  overrides (diffs reported, not failed):";
    if (options.override_tie_tolerance.has_value()) {
      os << " tie_tolerance=" << *options.override_tie_tolerance;
    }
    if (options.override_sweeps.has_value()) {
      os << " sweeps=" << *options.override_sweeps;
    }
    if (options.override_cell_size.has_value()) {
      os << " cell_size=" << *options.override_cell_size;
    }
    os << "\n";
  }
  for (const CycleReplayDiff& diff : report.cycles) {
    if (!diff.replayed) continue;
    const bool regressed = diff.Regressed(options);
    // Under overrides divergence is the experiment's output: show any cycle
    // whose decision moved, even without --verbose.
    const bool interesting =
        regressed || (options.has_overrides() &&
                      (diff.placement_cell_diffs > 0 ||
                       diff.verdict != Verdict::kEqual));
    if (!interesting && !verbose) continue;
    os << "cycle " << diff.cycle;
    if (!diff.run_id.empty()) os << " [" << diff.run_id << "]";
    os << ": " << (regressed ? "REGRESSED" : "ok") << " cells="
       << diff.placement_cell_diffs << " changes=" << diff.total_change_delta()
       << " (start " << diff.starts << ", stop " << diff.stops << ", suspend "
       << diff.suspends << ", resume " << diff.resumes << ", migrate "
       << diff.migrations << ") rp_drift=" << diff.rp_drift
       << " verdict=" << ToString(diff.verdict) << "\n";
    for (const std::string& line : diff.details) {
      os << "    " << line << "\n";
    }
  }
}

}  // namespace mwp::replay
