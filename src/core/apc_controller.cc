#include "core/apc_controller.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "core/snapshot.h"
#include "obs/stopwatch.h"

namespace mwp {
namespace {

/// When placed `job` finishes its remaining work at its current allocation,
/// starting at `now` or after a VM operation still in flight.
Seconds ProjectedCompletion(const Job& job, Seconds now) {
  const Seconds exec_start = std::max(now, job.overhead_until());
  return exec_start + job.profile().RemainingTimeAtSpeed(
                          job.work_done(), job.allocated_speed());
}

/// The solve a Config asks for: monolithic when shard_cell_size is 0.
ShardedPlacementOptimizer::Options SolveOptions(
    const ApcController::Config& config) {
  ShardedPlacementOptimizer::Options options;
  options.cell_size = config.shard_cell_size;
  options.partition_seed = config.shard_partition_seed;
  options.cell_threads = config.shard_cell_threads;
  options.max_cross_cell_moves = config.shard_max_cross_cell_moves;
  options.cell = config.optimizer;
  return options;
}

}  // namespace

ApcController::ApcController(const ClusterSpec* cluster, JobQueue* queue,
                             Config config)
    : cluster_(cluster), queue_(queue), config_(std::move(config)) {
  MWP_CHECK(cluster_ != nullptr);
  MWP_CHECK(queue_ != nullptr);
  MWP_CHECK(config_.control_cycle > 0.0);
  MWP_CHECK(config_.repair_max_changes >= 0);
  // Every solve option, checked here once instead of on the first solve —
  // which may run on a pool thread that cannot report the error.
  config_.costs.Validate();
  SolveOptions(config_).Validate();
}

void ApcController::AddTransactionalApp(
    TransactionalAppSpec spec, std::shared_ptr<const ArrivalRateProfile> rate) {
  MWP_CHECK(rate != nullptr);
  ManagedTx tx;
  tx.app = std::make_unique<TransactionalApp>(std::move(spec));
  tx.rate = std::move(rate);
  tx_apps_.push_back(std::move(tx));
}

void ApcController::Attach(Simulation& sim, Seconds first_cycle) {
  sim.SchedulePeriodic(first_cycle, config_.control_cycle,
                       [this](Simulation& s) { RunCycle(s); });
}

void ApcController::AdvanceJobsTo(Seconds to) {
  MWP_CHECK(to >= last_advance_);
  queue_->ForEachLive([&](Job& job) {
    if (job.placed()) job.AdvanceTo(last_advance_, to);
  });
  last_advance_ = to;
}

void ApcController::RunCycle(Simulation& sim) {
  const Seconds now = sim.now();
  CycleCapture capture = CaptureCycle(now);
  CycleSolution solution = SolveCycle(capture.snapshot);
  CommitCycle(capture, std::move(solution), now, &sim);
}

void ApcController::RunCycleAt(Seconds now) {
  CycleCapture capture = CaptureCycle(now);
  CycleSolution solution = SolveCycle(capture.snapshot);
  CommitCycle(capture, std::move(solution), now, nullptr);
}

CycleCapture ApcController::CaptureCycle(Seconds now) {
  AdvanceJobsTo(now);

  // Defence in depth against node faults nobody repaired mid-cycle: jobs
  // still "placed" on a dead node are re-queued with checkpoint rollback,
  // and transactional instances there are forgotten, before the snapshot is
  // taken — the optimizer must never reason from a phantom placement.
  CrashJobsOnOfflineNodes(now);
  for (ManagedTx& tx : tx_apps_) {
    std::erase_if(tx.instances,
                  [&](NodeId n) { return !cluster_->node_online(n); });
  }

  std::vector<PlacementSnapshot::TxInput> tx_inputs;
  tx_inputs.reserve(tx_apps_.size());
  for (const ManagedTx& tx : tx_apps_) {
    tx_inputs.push_back(
        {&PlacementView(tx), tx.rate->RateAt(now), tx.instances});
  }

  // Snapshot order: jobs in submission order, then tx apps in registration
  // order — the same order CommitCycle uses to apply decisions.
  PlacementSnapshot snapshot = PlacementSnapshot::Capture(
      *cluster_, now, config_.control_cycle, *queue_, config_.costs,
      tx_inputs);
  snapshot.set_constraints(config_.constraints);
  if (config_.optimizer.evaluator.objective.kind ==
      FairnessObjectiveKind::kKarma) {
    // Freeze the ledger into the snapshot: entities absent from the ledger
    // (first sighting) start at zero credits.
    std::vector<double> credits(
        static_cast<std::size_t>(snapshot.num_entities()), 0.0);
    for (int e = 0; e < snapshot.num_entities(); ++e) {
      const auto it = karma_credits_.find(snapshot.EntityAppId(e));
      if (it != karma_credits_.end()) {
        credits[static_cast<std::size_t>(e)] = it->second;
      }
    }
    snapshot.set_fairness_credits(std::move(credits));
  }
  return CycleCapture{now, std::move(snapshot), std::move(tx_inputs)};
}

CycleSolution ApcController::SolveCycle(
    const PlacementSnapshot& snapshot) const {
  CycleSolution solution;
  const ShardedPlacementOptimizer::Options options = SolveOptions(config_);
  const obs::Stopwatch stopwatch;
  ShardedPlacementOptimizer::Result solved = SolvePlacement(snapshot, options);
  solution.result = std::move(solved.global);
  solution.num_cells = solved.num_cells;
  solution.cross_cell_migrations = solved.cross_cell_migrations;
  solution.cell_solver_seconds = std::move(solved.cell_solve_seconds);
  solution.solver_seconds = stopwatch.Elapsed();
  return solution;
}

void ApcController::CommitCycle(const CycleCapture& capture,
                                CycleSolution solution, Seconds commit_now,
                                Simulation* sim) {
  MWP_CHECK(commit_now >= capture.now);
  const PlacementSnapshot& snapshot = capture.snapshot;
  const PlacementOptimizer::Result& result = solution.result;
  // When the solve ran asynchronously, jobs kept executing under their old
  // allocations; settle that execution before the new decision takes
  // effect. Synchronous commits advance to the instant they are already at
  // (a no-op).
  AdvanceJobsTo(commit_now);

  // Resolve the captured jobs against the live queue by id. A capture that
  // went stale mid-solve may reference jobs that completed; those entries
  // resolve to null and their decisions are dropped. In the synchronous
  // path the resolved set is exactly queue_->Incomplete() at capture time,
  // in capture order, so decisions apply as job j <-> entity j.
  std::vector<Job*> jobs;
  jobs.reserve(static_cast<std::size_t>(snapshot.num_jobs()));
  for (int j = 0; j < snapshot.num_jobs(); ++j) {
    Job* job = queue_->Find(snapshot.job(j).id);
    if (job != nullptr && job->status() == JobStatus::kCompleted) {
      job = nullptr;
    }
    jobs.push_back(job);
  }

  const Seconds now = commit_now;
  // Each job's node in the decision, as the distributor resolved it from
  // result.placement: no row scan per job.
  const std::vector<int>& job_nodes = result.evaluation.distribution.job_nodes;
  MWP_CHECK(job_nodes.size() == static_cast<std::size_t>(snapshot.num_jobs()));
  for (int j = 0; j < snapshot.num_jobs(); ++j) {
    Job* job = jobs[static_cast<std::size_t>(j)];
    if (job == nullptr) continue;
    const int entity = snapshot.EntityOfJob(j);
    const NodeId target = job_nodes[static_cast<std::size_t>(j)];
    MWP_CHECK(target == kInvalidNode ||
              result.placement.at(entity, target) > 0);
    const NodeId current = job->placed() ? job->node() : kInvalidNode;

    if (target == kInvalidNode) {
      if (job->placed()) {
        job->Suspend(now);
        job->ExtendOverhead(now +
                            config_.costs.SuspendCost(job->profile().max_memory()));
      }
      continue;
    }
    if (current == kInvalidNode) {
      const bool resume = job->status() == JobStatus::kSuspended;
      if (OperationFails(resume ? PlacementChange::Kind::kResume
                                : PlacementChange::Kind::kStart,
                         job->id())) {
        continue;  // VM never came up: still queued/suspended, retried later
      }
      const Seconds overhead = resume
                                   ? config_.costs.ResumeCost(
                                         job->profile().max_memory())
                                   : config_.costs.BootCost();
      job->Place(target, now, overhead);
    } else if (current != target) {
      if (!OperationFails(PlacementChange::Kind::kMigrate, job->id())) {
        job->Place(target, now,
                   config_.costs.MigrateCost(job->profile().max_memory()));
      }
      // On failure the VM stays where it was; it keeps this cycle's
      // allocation and the next cycle re-plans from the true placement.
    }
    job->SetAllocation(
        result.evaluation.distribution.totals[static_cast<std::size_t>(entity)]);
  }

  // Apply transactional instance decisions. A newly started instance may be
  // vetoed by the operation oracle; the app then runs short one instance
  // until a later cycle retries.
  for (std::size_t w = 0; w < tx_apps_.size(); ++w) {
    const int entity = snapshot.EntityOfTx(static_cast<int>(w));
    const std::vector<NodeId>& old_nodes = tx_apps_[w].instances;
    std::vector<NodeId> instances;
    for (int n = 0; n < snapshot.num_nodes(); ++n) {
      for (int k = 0; k < result.placement.at(entity, n); ++k) {
        const bool is_new =
            std::find(old_nodes.begin(), old_nodes.end(), n) == old_nodes.end();
        if (is_new && OperationFails(PlacementChange::Kind::kStart,
                                     tx_apps_[w].app->id())) {
          continue;
        }
        instances.push_back(n);
      }
    }
    tx_apps_[w].instances = std::move(instances);
  }

  // Bookkeeping. Stats are anchored at the capture instant so a cycle's
  // stats.time always matches its snapshot (and replay input) time.
  CycleStats stats;
  stats.time = capture.now;
  stats.num_jobs = snapshot.num_jobs();
  double rp_sum = 0.0;
  double rp_min = std::numeric_limits<double>::infinity();
  for (int j = 0; j < snapshot.num_jobs(); ++j) {
    const double u =
        result.evaluation.entity_utilities[static_cast<std::size_t>(j)];
    rp_sum += u;
    rp_min = std::min(rp_min, u);
  }
  stats.avg_job_rp = snapshot.num_jobs() > 0
                         ? rp_sum / snapshot.num_jobs()
                         : std::numeric_limits<double>::quiet_NaN();
  stats.min_job_rp = snapshot.num_jobs() > 0
                         ? rp_min
                         : std::numeric_limits<double>::quiet_NaN();
  for (Job* job : jobs) {
    if (job == nullptr) continue;
    switch (job->status()) {
      case JobStatus::kRunning:
        ++stats.running_jobs;
        break;
      case JobStatus::kNotStarted:
        ++stats.queued_jobs;
        break;
      case JobStatus::kSuspended:
        ++stats.suspended_jobs;
        break;
      case JobStatus::kPaused:
        ++stats.running_jobs;  // placed; counts against capacity
        break;
      case JobStatus::kCompleted:
        break;
    }
  }
  stats.batch_allocation = result.evaluation.batch_allocation;
  stats.tx_allocation = result.evaluation.tx_allocation;
  stats.cluster_utilization =
      (stats.batch_allocation + stats.tx_allocation) / cluster_->total_cpu();
  stats.starts += pending_quick_starts_;
  stats.resumes += pending_quick_resumes_;
  stats.failed_operations = pending_failed_ops_;
  pending_quick_starts_ = 0;
  pending_quick_resumes_ = 0;
  pending_failed_ops_ = 0;
  for (const PlacementChange& ch : result.evaluation.changes) {
    switch (ch.kind) {
      case PlacementChange::Kind::kStart:
        ++stats.starts;
        break;
      case PlacementChange::Kind::kStop:
        ++stats.stops;
        break;
      case PlacementChange::Kind::kSuspend:
        ++stats.suspends;
        break;
      case PlacementChange::Kind::kResume:
        ++stats.resumes;
        break;
      case PlacementChange::Kind::kMigrate:
        ++stats.migrations;
        break;
    }
  }
  total_changes_ += static_cast<int>(result.evaluation.changes.size());
  stats.evaluations = result.evaluations;
  stats.shortcut = result.used_shortcut;
  stats.solver_seconds = solution.solver_seconds;
  stats.num_cells = solution.num_cells;
  stats.cross_cell_migrations = solution.cross_cell_migrations;
  stats.cell_solver_seconds = std::move(solution.cell_solver_seconds);

  // The transactional rows of the load matrix: all this cycle reads of it.
  const LoadMatrix& tx_loads = result.evaluation.distribution.tx_loads;
  for (std::size_t w = 0; w < tx_apps_.size(); ++w) {
    const int entity = snapshot.EntityOfTx(static_cast<int>(w));
    const double rate = capture.tx_inputs[w].arrival_rate;
    const MHz alloc =
        result.evaluation.distribution.totals[static_cast<std::size_t>(entity)];
    stats.tx_allocations.push_back(alloc);
    stats.tx_arrival_rates.push_back(rate);
    if (rate > 1e-12) {
      const Seconds rt = tx_apps_[w].app->ResponseTime(rate, alloc);
      stats.tx_response_times.push_back(rt);
      stats.tx_utilities.push_back(tx_apps_[w].app->UtilityAt(rate, alloc));
      // Router view: balance the flow over the instances' allocations and
      // record what overload protection admits vs sheds (§3.1).
      std::vector<MHz> instance_allocs;
      for (int n = 0; n < snapshot.num_nodes(); ++n) {
        if (result.placement.at(entity, n) > 0) {
          instance_allocs.push_back(tx_loads.at(static_cast<int>(w), n));
        }
      }
      const RoutingDecision routed =
          router_.Route(*tx_apps_[w].app, rate, instance_allocs);
      stats.tx_admitted_rates.push_back(routed.admitted_rate);
      stats.tx_rejected_rates.push_back(routed.rejected_rate);
      if (config_.use_work_profiler) {
        // The profiler sees what the nodes actually consumed serving the
        // admitted flow (ground truth demand, capped by the allocation) and
        // refines the estimate used for next cycle's placement.
        const MHz consumed = std::min(
            alloc,
            routed.admitted_rate * tx_apps_[w].app->spec().demand_per_request);
        tx_apps_[w].profiler.Observe(routed.admitted_rate, consumed);
        const Megacycles estimate =
            tx_apps_[w].profiler.EstimateDemandPerRequest();
        if (estimate > 0.0) {
          TransactionalAppSpec spec = tx_apps_[w].app->spec();
          spec.demand_per_request = estimate;
          tx_apps_[w].estimated =
              std::make_unique<TransactionalApp>(std::move(spec));
        }
      }
    } else {
      stats.tx_response_times.push_back(0.0);
      stats.tx_utilities.push_back(1.0);
      stats.tx_admitted_rates.push_back(0.0);
      stats.tx_rejected_rates.push_back(0.0);
    }
  }

  if (config_.record_job_details) {
    for (int j = 0; j < snapshot.num_jobs(); ++j) {
      const JobView& jv = snapshot.job(j);
      const int entity = snapshot.EntityOfJob(j);
      JobCycleDetail d;
      d.id = jv.id;
      d.work_done = jv.work_done;
      d.outstanding = jv.profile->RemainingWork(jv.work_done);
      d.placed = job_nodes[static_cast<std::size_t>(j)] != kInvalidNode;
      d.allocation =
          result.evaluation.distribution.totals[static_cast<std::size_t>(entity)];
      d.predicted_utility =
          result.evaluation.entity_utilities[static_cast<std::size_t>(entity)];
      d.future_speed =
          result.evaluation.job_future_speeds[static_cast<std::size_t>(j)];
      stats.job_details.push_back(d);
    }
  }

  UpdateKarmaCredits(snapshot, result);
  RecordObservability(stats, result, snapshot);
  ++cycle_index_;
  next_cycle_trigger_.clear();

  cycles_.push_back(std::move(stats));
  MWP_LOG_DEBUG << "cycle t=" << now << " jobs=" << snapshot.num_jobs()
                << " evals=" << result.evaluations
                << " solver=" << solution.solver_seconds << "s";

  // Remember the transactional per-node loads so that mid-cycle dispatch
  // knows what is genuinely free, and watch for mid-cycle completions.
  tx_node_loads_.assign(static_cast<std::size_t>(cluster_->num_nodes()), 0.0);
  for (int w = 0; w < tx_loads.num_apps(); ++w) {
    for (int n = 0; n < tx_loads.num_nodes(); ++n) {
      tx_node_loads_[static_cast<std::size_t>(n)] += tx_loads.at(w, n);
    }
  }
  if (sim != nullptr) {
    // Jobs were advanced to commit_now above, so the pass advances nothing.
    MWP_CHECK(sim->now() == commit_now);
    ArmCompletionWatch(*sim, SurveyLiveJobs(commit_now).next_completion);
  }
}

void ApcController::UpdateKarmaCredits(
    const PlacementSnapshot& snapshot,
    const PlacementOptimizer::Result& result) {
  const FairnessObjectiveConfig& cfg = config_.optimizer.evaluator.objective;
  if (cfg.kind != FairnessObjectiveKind::kKarma) return;
  const int entities = snapshot.num_entities();
  if (entities == 0) {
    karma_credits_.clear();
    return;
  }
  // Fair share: the CPU the cluster had available at capture, split evenly
  // over every entity the controller reasoned about. Yielding below that
  // share earns credits proportional to the normalized shortfall; taking
  // more spends them. The ledger is rebuilt keyed by application id, so
  // completed entities drop out and iteration stays deterministic (std::map
  // ordered by id, matching snapshot serialization).
  MHz available = 0.0;
  for (int n = 0; n < snapshot.num_nodes(); ++n) {
    if (snapshot.NodeOnline(n)) available += snapshot.NodeAvailableCpu(n);
  }
  const MHz fair_share = available / entities;
  std::map<AppId, double> next;
  for (int e = 0; e < entities; ++e) {
    const AppId id = snapshot.EntityAppId(e);
    const MHz alloc =
        result.evaluation.distribution.totals[static_cast<std::size_t>(e)];
    double credits = 0.0;
    const auto it = karma_credits_.find(id);
    if (it != karma_credits_.end()) credits = it->second;
    if (fair_share > 0.0) {
      credits += cfg.karma_earn_rate * (fair_share - alloc) / fair_share;
    }
    next.emplace(id, std::clamp(credits, 0.0, cfg.karma_cap));
  }
  karma_credits_ = std::move(next);
}

obs::NodeHealthSummary ApcController::HealthSummary() const {
  obs::NodeHealthSummary health;
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    switch (cluster_->node_state(n)) {
      case NodeState::kOnline:
        ++health.online;
        break;
      case NodeState::kDegraded:
        ++health.degraded;
        break;
      case NodeState::kOffline:
        ++health.offline;
        break;
    }
    health.available_cpu += cluster_->available_cpu(n);
    health.nominal_cpu += cluster_->node(n).total_cpu();
  }
  return health;
}

namespace {

/// Freezes the optimizer input of one cycle for replay (schema v2 "input").
/// Everything the optimizer reads is copied out of the snapshot it actually
/// saw; node health comes from the live cluster, which cannot have changed
/// since Capture (the event queue serializes faults against cycles).
obs::CycleInputRecord BuildInputRecord(const PlacementSnapshot& snapshot,
                                       const ApcController::Config& config) {
  const PlacementOptimizer::Options& options = config.optimizer;
  obs::CycleInputRecord in;
  in.now = snapshot.now();
  in.control_cycle = snapshot.control_cycle();

  const ClusterSpec& cluster = snapshot.cluster();
  in.nodes.reserve(static_cast<std::size_t>(cluster.num_nodes()));
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    obs::TraceNodeInput node;
    node.num_cpus = cluster.node(n).num_cpus;
    node.cpu_speed = cluster.node(n).cpu_speed_mhz;
    node.memory = cluster.node(n).memory_mb;
    node.state = static_cast<int>(cluster.node_state(n));
    node.speed_factor = cluster.node_state(n) == NodeState::kDegraded
                            ? cluster.node_speed_factor(n)
                            : 1.0;
    in.nodes.push_back(node);
  }

  in.jobs.reserve(static_cast<std::size_t>(snapshot.num_jobs()));
  for (const JobView& jv : snapshot.jobs()) {
    obs::TraceJobInput job;
    job.id = jv.id;
    job.submit_time = jv.goal.submit_time;
    job.desired_start = jv.goal.desired_start;
    job.completion_goal = jv.goal.completion_goal;
    job.work_done = jv.work_done;
    job.status = static_cast<int>(jv.status);
    job.current_node = jv.current_node;
    job.overhead_until = jv.overhead_until;
    job.place_overhead = jv.place_overhead;
    job.migrate_overhead = jv.migrate_overhead;
    job.memory = jv.memory;
    job.max_speed = jv.max_speed;
    job.min_speed = jv.min_speed;
    for (const JobStage& st : jv.profile->stages()) {
      job.stages.push_back({st.work, st.max_speed, st.min_speed, st.memory});
    }
    in.jobs.push_back(std::move(job));
  }

  in.tx_apps.reserve(static_cast<std::size_t>(snapshot.num_tx()));
  for (const TxView& tv : snapshot.tx_apps()) {
    const TransactionalAppSpec& spec = tv.app->spec();
    obs::TraceTxInput tx;
    tx.id = tv.id;
    tx.name = spec.name;
    tx.memory = spec.memory_per_instance;
    tx.response_time_goal = spec.response_time_goal;
    tx.demand_per_request = spec.demand_per_request;
    tx.min_response_time = spec.min_response_time;
    tx.saturation = spec.saturation_allocation;
    tx.max_instances = spec.max_instances;
    tx.arrival_rate = tv.arrival_rate;
    tx.current_nodes = tv.current_nodes;
    in.tx_apps.push_back(std::move(tx));
  }

  in.options.max_sweeps = options.max_sweeps;
  // The build's constants: no evaluation budget (0), the default sampling
  // grid (empty) and aggregate bargaining keep the struct's defaults.
  in.options.max_changes_per_node = PlacementOptimizer::kMaxChangesPerNode;
  in.options.max_wishes_tried = PlacementOptimizer::kMaxWishesTried;
  in.options.max_migrations_tried = PlacementOptimizer::kMaxMigrationsTried;
  in.options.tie_tolerance = options.evaluator.tie_tolerance;
  in.options.level_tolerance = options.evaluator.distributor.level_tolerance;
  in.options.probe_delta = options.evaluator.distributor.probe_delta;
  in.options.bisection_iters = options.evaluator.distributor.bisection_iters;
  in.options.cell_size = config.shard_cell_size;
  in.options.partition_seed = config.shard_partition_seed;
  in.options.max_cross_cell_moves = config.shard_max_cross_cell_moves;
  in.options.objective = static_cast<int>(options.evaluator.objective.kind);
  in.options.karma_weight = options.evaluator.objective.karma_weight;
  in.options.karma_cap = options.evaluator.objective.karma_cap;
  in.options.karma_earn_rate = options.evaluator.objective.karma_earn_rate;
  in.options.pf_epsilon = options.evaluator.objective.pf_epsilon;
  in.fairness_credits = snapshot.fairness_credits();

  for (const auto& [app, nodes] : snapshot.constraints().pins()) {
    in.pins.push_back({app, nodes});
  }
  in.separations = snapshot.constraints().separations();
  return in;
}

/// Freezes the committed decision (schema v2 "decision"): non-zero placement
/// cells in row-major (entity, node) order plus per-entity totals.
obs::CycleDecisionRecord BuildDecisionRecord(
    const PlacementSnapshot& snapshot,
    const PlacementOptimizer::Result& result) {
  obs::CycleDecisionRecord decision;
  for (int e = 0; e < snapshot.num_entities(); ++e) {
    for (int n = 0; n < snapshot.num_nodes(); ++n) {
      const int count = result.placement.at(e, n);
      if (count > 0) decision.placement.push_back({e, n, count});
    }
  }
  decision.allocations = result.evaluation.distribution.totals;
  return decision;
}

}  // namespace

void ApcController::RecordObservability(
    const CycleStats& stats, const PlacementOptimizer::Result& result,
    const PlacementSnapshot& snapshot) {
  if (config_.trace == nullptr && config_.metrics == nullptr) return;

  if (config_.trace != nullptr) {
    obs::CycleTrace trace;
    trace.run_id = config_.trace_run_id;
    trace.cycle = cycle_index_;
    trace.time = stats.time;
    trace.rp_before = result.incumbent_utilities;
    trace.rp_after = RpVector(result.evaluation.entity_utilities);
    trace.avg_job_rp = stats.avg_job_rp;
    trace.min_job_rp = stats.min_job_rp;
    trace.num_jobs = stats.num_jobs;
    trace.running_jobs = stats.running_jobs;
    trace.queued_jobs = stats.queued_jobs;
    trace.suspended_jobs = stats.suspended_jobs;
    trace.batch_allocation = stats.batch_allocation;
    trace.tx_allocation = stats.tx_allocation;
    trace.cluster_utilization = stats.cluster_utilization;
    trace.starts = stats.starts;
    trace.stops = stats.stops;
    trace.suspends = stats.suspends;
    trace.resumes = stats.resumes;
    trace.migrations = stats.migrations;
    trace.failed_operations = stats.failed_operations;
    trace.evaluations = stats.evaluations;
    trace.shortcut = stats.shortcut;
    trace.solver_seconds = stats.solver_seconds;
    trace.cache_hits = result.cache_hits;
    trace.cache_misses = result.cache_misses;
    trace.distribute_calls = result.distribute_calls;
    trace.node_health = HealthSummary();
    trace.tx_utilities = stats.tx_utilities;
    trace.tx_allocations = stats.tx_allocations;
    trace.num_cells = stats.num_cells;
    trace.cross_cell_migrations = stats.cross_cell_migrations;
    trace.cell_solver_seconds = stats.cell_solver_seconds;
    trace.trigger = next_cycle_trigger_;
    if (config_.trace_full) {
      trace.input = BuildInputRecord(snapshot, config_);
      trace.decision = BuildDecisionRecord(snapshot, result);
    }
    config_.trace->Record(std::move(trace));
  }

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    m.counter("apc.cycles").Increment();
    m.counter("apc.evaluations")
        .Increment(static_cast<std::uint64_t>(stats.evaluations));
    m.counter("apc.placement_changes")
        .Increment(static_cast<std::uint64_t>(
            stats.starts + stats.stops + stats.suspends + stats.resumes +
            stats.migrations));
    m.counter("apc.failed_operations")
        .Increment(static_cast<std::uint64_t>(stats.failed_operations));
    m.counter("apc.cache_hits").Increment(result.cache_hits);
    m.counter("apc.cache_misses").Increment(result.cache_misses);
    m.counter("apc.distribute_calls").Increment(result.distribute_calls);
    if (stats.shortcut) m.counter("apc.shortcut_cycles").Increment();
    m.gauge("apc.cluster_utilization").Set(stats.cluster_utilization);
    if (stats.num_jobs > 0) m.gauge("apc.avg_job_rp").Set(stats.avg_job_rp);
    m.histogram("apc.solver_seconds").Observe(stats.solver_seconds);
    if (stats.num_cells > 0) {
      m.gauge("apc.cells").Set(stats.num_cells);
      m.counter("apc.cross_cell_migrations")
          .Increment(static_cast<std::uint64_t>(stats.cross_cell_migrations));
      obs::Histogram& cell_hist = m.histogram("apc.cell_solver_seconds");
      for (Seconds s : stats.cell_solver_seconds) cell_hist.Observe(s);
    }

    // Snapshot ring + derived rates: push this cycle's registry state, then
    // read counter deltas/rates over the ring's window back into rate
    // gauges. Rates lag the push by design (they describe completed
    // cycles), so a ring snapshot carries the previous cycle's rates.
    if (config_.metrics_ring != nullptr) {
      obs::MetricsRing& ring = *config_.metrics_ring;
      ring.Push(stats.time, m.Snapshot());
      const auto set_rate = [&m](const char* name,
                                 const std::optional<double>& value) {
        if (value) m.gauge(name).Set(*value);
      };
      set_rate("apc.rate.evaluations_per_sec",
               ring.CounterRate("apc.evaluations"));
      set_rate("apc.rate.placement_changes_per_cycle",
               ring.CounterDelta("apc.placement_changes"));
      set_rate("apc.rate.migrations_per_cycle",
               ring.CounterDelta("apc.cross_cell_migrations"));
    }
  }
}

const TransactionalApp& ApcController::PlacementView(
    const ManagedTx& tx) const {
  if (config_.use_work_profiler && tx.estimated != nullptr) {
    return *tx.estimated;
  }
  return *tx.app;
}

void ApcController::OnJobSubmitted(Simulation& sim) {
  LiveJobs live = SurveyLiveJobs(sim.now());
  if (DispatchWaiting(live, sim.now(), kUnbounded) > 0) {
    ArmCompletionWatch(sim, live.next_completion);
  }
}

bool ApcController::OperationFails(PlacementChange::Kind kind, AppId app) {
  if (!config_.vm_operation_oracle) return false;
  if (config_.vm_operation_oracle(kind, app)) {
    ++pending_failed_ops_;
    return true;
  }
  return false;
}

int ApcController::CrashJobsOnOfflineNodes(Seconds now) {
  int crashed = 0;
  queue_->ForEachLive([&](Job& job) {
    if (job.placed() && !cluster_->node_online(job.node())) {
      job.Crash(now);
      ++crashed;
    }
  });
  return crashed;
}

ApcController::LiveJobs ApcController::SurveyLiveJobs(Seconds now) {
  MWP_CHECK(now >= last_advance_);
  const auto n_nodes = static_cast<std::size_t>(cluster_->num_nodes());
  const bool constrained = !config_.constraints.empty();
  LiveJobs live;
  live.free_mem.resize(n_nodes);
  live.free_cpu.resize(n_nodes);
  if (constrained) live.residents.resize(n_nodes);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    // Health-aware capacity: an offline node offers nothing to mid-cycle
    // dispatch; a degraded node offers its scaled-down CPU.
    live.free_mem[n] = cluster_->available_memory(static_cast<NodeId>(n));
    live.free_cpu[n] = cluster_->available_cpu(static_cast<NodeId>(n));
    if (n < tx_node_loads_.size()) live.free_cpu[n] -= tx_node_loads_[n];
  }
  for (const ManagedTx& tx : tx_apps_) {
    for (NodeId node : tx.instances) {
      const auto n = static_cast<std::size_t>(node);
      live.free_mem[n] -= tx.app->spec().memory_per_instance;
      if (constrained) live.residents[n].push_back(tx.app->id());
    }
  }
  queue_->ForEachLive([&](Job& job) {
    if (!job.placed()) {
      live.waiting.push_back(&job);  // not started or suspended
      return;
    }
    job.AdvanceTo(last_advance_, now);
    if (job.completed()) return;
    const auto n = static_cast<std::size_t>(job.node());
    live.free_mem[n] -= job.profile().max_memory();
    live.free_cpu[n] -= job.allocated_speed();
    if (constrained) live.residents[n].push_back(job.id());
    if (job.allocated_speed() > 0.0) {
      live.next_completion =
          std::min(live.next_completion, ProjectedCompletion(job, now));
    }
  });
  last_advance_ = now;
  return live;
}

int ApcController::QuickDispatchAt(Seconds now, int max_placements) {
  LiveJobs live = SurveyLiveJobs(now);
  return DispatchWaiting(live, now, max_placements);
}

int ApcController::DispatchWaiting(LiveJobs& live, Seconds now,
                                   int max_placements) {
  std::vector<Job*>& waiting = live.waiting;
  if (waiting.empty() || max_placements <= 0) return 0;
  // Lowest relative performance first: the job whose achievable RP has
  // decayed the most is dispatched first. Ledger credits bias the ranking
  // exactly as they bias the evaluator's need ranking (KarmaBias), so
  // credits earned while waiting are redeemed at event-driven dispatch too,
  // not only at full control cycles. The ledger is empty unless the
  // objective is Karma.
  std::vector<std::pair<double, Job*>> ranked;
  ranked.reserve(waiting.size());
  for (Job* job : waiting) {
    const auto it = karma_credits_.find(job->id());
    const double bias =
        it == karma_credits_.end()
            ? 0.0
            : KarmaBias(config_.optimizer.evaluator.objective, it->second);
    ranked.emplace_back(job->MaxAchievableUtility(now) + bias, job);
  }
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < ranked.size(); ++i) waiting[i] = ranked[i].second;

  std::vector<Megabytes>& free_mem = live.free_mem;
  std::vector<MHz>& free_cpu = live.free_cpu;
  auto allowed = [&](const Job& job, std::size_t n) {
    if (config_.constraints.empty()) return true;
    if (!config_.constraints.AllowsNode(job.id(), static_cast<NodeId>(n))) {
      return false;
    }
    for (AppId other : live.residents[n]) {
      if (!config_.constraints.AllowsCollocation(job.id(), other)) {
        return false;
      }
    }
    return true;
  };

  int placed_count = 0;
  for (Job* job : waiting) {
    if (placed_count >= max_placements) break;
    const Megabytes mem = job->profile().max_memory();
    const int stage =
        std::min(job->current_stage(), job->profile().num_stages() - 1);
    const MHz max_speed = job->profile().stage(stage).max_speed;
    const MHz min_speed = job->profile().stage(stage).min_speed;
    // Pick the node offering the most usable speed; demand at least a
    // quarter of the job's cap so mid-cycle starts are worth their churn.
    int best_node = -1;
    MHz best_speed = std::max({0.25 * max_speed, min_speed, 1e-6});
    for (std::size_t n = 0; n < free_cpu.size(); ++n) {
      if (free_mem[n] + kEpsilon < mem) continue;
      if (!allowed(*job, n)) continue;
      const MHz usable = std::min(free_cpu[n], max_speed);
      if (usable >= best_speed) {
        best_speed = usable;
        best_node = static_cast<int>(n);
      }
    }
    if (best_node < 0) continue;
    const bool resume = job->status() == JobStatus::kSuspended;
    if (OperationFails(resume ? PlacementChange::Kind::kResume
                              : PlacementChange::Kind::kStart,
                       job->id())) {
      continue;  // VM failed to come up: job stays queued, retried later
    }
    const Seconds overhead =
        resume ? config_.costs.ResumeCost(mem) : config_.costs.BootCost();
    job->Place(best_node, now, overhead);
    job->SetAllocation(best_speed);
    free_mem[static_cast<std::size_t>(best_node)] -= mem;
    free_cpu[static_cast<std::size_t>(best_node)] -= best_speed;
    if (!config_.constraints.empty()) {
      live.residents[static_cast<std::size_t>(best_node)].push_back(job->id());
    }
    live.next_completion =
        std::min(live.next_completion, ProjectedCompletion(*job, now));
    ++total_changes_;
    if (resume) {
      ++pending_quick_resumes_;
    } else {
      ++pending_quick_starts_;
    }
    ++placed_count;
  }
  return placed_count;
}

void ApcController::OnNodeFault(Simulation& sim) { RepairNow(sim.now(), &sim); }

void ApcController::OnNodeFaultAt(Seconds now) { RepairNow(now, nullptr); }

void ApcController::RepairNow(Seconds now, Simulation* sim) {
  AdvanceJobsTo(now);

  RepairStats repair;
  repair.time = now;
  repair.jobs_requeued = CrashJobsOnOfflineNodes(now);

  // Forget transactional instances that died with their node; they are the
  // repair cycle's first priority because each lost instance directly cuts
  // the app's serving capacity.
  struct Displaced {
    std::size_t tx_index;
  };
  std::vector<Displaced> displaced;
  for (std::size_t w = 0; w < tx_apps_.size(); ++w) {
    ManagedTx& tx = tx_apps_[w];
    const std::size_t before = tx.instances.size();
    std::erase_if(tx.instances,
                  [&](NodeId n) { return !cluster_->node_online(n); });
    for (std::size_t k = tx.instances.size(); k < before; ++k) {
      displaced.push_back({w});
    }
  }
  repair.tx_displaced = static_cast<int>(displaced.size());

  // The tx load that died with the node is gone until the next full cycle
  // re-runs the distributor; stop counting it against the surviving nodes'
  // free CPU. (tx_node_loads_ only tracks nodes, so zeroing offline entries
  // is enough — surviving instances keep their last-cycle loads.)
  for (std::size_t n = 0; n < tx_node_loads_.size(); ++n) {
    if (!cluster_->node_online(static_cast<NodeId>(n))) {
      tx_node_loads_[n] = 0.0;
    }
  }

  LiveJobs live = SurveyLiveJobs(now);
  std::vector<Megabytes>& free_mem = live.free_mem;
  const std::vector<MHz>& free_cpu = live.free_cpu;

  // Restart each displaced instance on the surviving node with the most free
  // CPU that fits its memory and satisfies placement constraints, stopping at
  // the churn bound. Instances the oracle vetoes stay down until the next
  // periodic cycle retries.
  int budget = config_.repair_max_changes;
  for (const Displaced& d : displaced) {
    if (budget <= 0) break;
    ManagedTx& tx = tx_apps_[d.tx_index];
    const int cap = tx.app->spec().max_instances;
    if (cap > 0 && static_cast<int>(tx.instances.size()) >= cap) continue;
    const Megabytes mem = tx.app->spec().memory_per_instance;
    // Any online node with the memory and no instance of this app yet is
    // acceptable — even a CPU-saturated one, since the next cycle's
    // distributor rebalances load; prefer the node with the most
    // unallocated CPU so the instance is useful now.
    int best_node = -1;
    MHz best_cpu = -std::numeric_limits<MHz>::infinity();
    for (std::size_t n = 0; n < free_cpu.size(); ++n) {
      if (!cluster_->node_online(static_cast<NodeId>(n))) continue;
      if (free_mem[n] + kEpsilon < mem) continue;
      if (std::find(tx.instances.begin(), tx.instances.end(),
                    static_cast<NodeId>(n)) != tx.instances.end()) {
        continue;  // one instance per node (snapshot feasibility rule)
      }
      if (!config_.constraints.empty() &&
          !config_.constraints.AllowsNode(tx.app->id(),
                                          static_cast<NodeId>(n))) {
        continue;
      }
      if (free_cpu[n] > best_cpu) {
        best_cpu = free_cpu[n];
        best_node = static_cast<int>(n);
      }
    }
    if (best_node < 0) continue;
    if (OperationFails(PlacementChange::Kind::kStart, tx.app->id())) continue;
    tx.instances.push_back(best_node);
    free_mem[static_cast<std::size_t>(best_node)] -= mem;
    ++total_changes_;
    ++repair.tx_replaced;
    --budget;
  }

  // Refill whatever capacity the fault freed (and the budget still allows)
  // with queued work — including the jobs this fault just re-queued. A new
  // pass charges the restarted instances' memory in tx order, as every
  // dispatch does.
  LiveJobs refill = SurveyLiveJobs(now);
  repair.job_placements = DispatchWaiting(refill, now, budget);
  repair.failed_operations = pending_failed_ops_;

  MWP_LOG_DEBUG << "repair t=" << now << " requeued=" << repair.jobs_requeued
                << " tx=" << repair.tx_replaced << "/" << repair.tx_displaced
                << " jobs=" << repair.job_placements;
  repairs_.push_back(repair);
  if (sim != nullptr) ArmCompletionWatch(*sim, refill.next_completion);
}

void ApcController::ArmCompletionWatch(Simulation& sim, Seconds at) {
  sim.Cancel(completion_watch_);
  completion_watch_ = EventHandle();
  if (at == kTimeForever) return;
  completion_watch_ =
      sim.ScheduleAt(std::max(at, sim.now()), [this](Simulation& s) {
        // Advance jobs, refill freed capacity and re-arm from one pass.
        LiveJobs live = SurveyLiveJobs(s.now());
        DispatchWaiting(live, s.now(), kUnbounded);
        ArmCompletionWatch(s, live.next_completion);
      });
}

}  // namespace mwp
