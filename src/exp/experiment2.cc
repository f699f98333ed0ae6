#include "exp/experiment2.h"

#include <memory>

#include "batch/arrival_process.h"
#include "batch/job_factory.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/apc_controller.h"
#include "exp/experiment1.h"
#include "sched/edf_scheduler.h"
#include "sched/fcfs_scheduler.h"
#include "sim/simulation.h"

namespace mwp {

const char* ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kApc:
      return "APC";
    case SchedulerKind::kEdf:
      return "EDF";
    case SchedulerKind::kFcfs:
      return "FCFS";
  }
  return "?";
}

Experiment2Result RunExperiment2(const Experiment2Config& config) {
  MWP_CHECK(config.completed_jobs_target > 0);
  const ClusterSpec cluster =
      ClusterSpec::Uniform(config.num_nodes, PaperNode());

  JobQueue queue;
  Simulation sim;

  Rng master(config.seed);
  auto factory = MixtureJobFactory::PaperExperimentTwo(master.Fork());
  auto arrivals = std::make_shared<PoissonArrivalProcess>(
      master.Fork(), config.mean_interarrival);

  std::unique_ptr<ApcController> apc;
  std::unique_ptr<BaselineScheduler> baseline;
  if (config.scheduler == SchedulerKind::kApc) {
    ApcController::Config cfg;
    cfg.control_cycle = config.control_cycle;
    cfg.costs = VmCostModel::Free();  // changes counted, not charged (§5.2)
    if (config.apc_tie_tolerance > 0.0) {
      cfg.optimizer.evaluator.tie_tolerance = config.apc_tie_tolerance;
    }
    cfg.trace = config.trace;
    cfg.trace_run_id = config.trace_run_id;
    cfg.trace_full = config.trace_full;
    apc = std::make_unique<ApcController>(&cluster, &queue, cfg);
    apc->Attach(sim, 0.0);
  } else {
    BaselineScheduler::Config cfg;
    cfg.costs = VmCostModel::Free();
    if (config.scheduler == SchedulerKind::kEdf) {
      baseline = std::make_unique<EdfScheduler>(&cluster, &queue, cfg);
    } else {
      baseline = std::make_unique<FcfsScheduler>(&cluster, &queue, cfg);
    }
  }

  // Self-rescheduling arrival chain: keep submitting until the target
  // number of jobs has completed (the paper submits continuously).
  const std::size_t target =
      static_cast<std::size_t>(config.completed_jobs_target);
  std::function<void(Simulation&)> submit = [&](Simulation& s) {
    if (queue.num_completed() >= target) return;
    queue.Submit(factory->Create(s.now()));
    if (baseline != nullptr) baseline->OnJobSubmitted(s);
    if (apc != nullptr) apc->OnJobSubmitted(s);
    s.ScheduleAt(arrivals->NextArrival(),
                 [&submit](Simulation& inner) { submit(inner); });
  };
  sim.ScheduleAt(arrivals->NextArrival(),
                 [&submit](Simulation& inner) { submit(inner); });

  const Seconds horizon = config.horizon_factor *
                          static_cast<double>(config.completed_jobs_target) *
                          config.mean_interarrival;
  while (queue.num_completed() < target && sim.now() < horizon) {
    sim.RunUntil(sim.now() + config.control_cycle);
  }
  if (apc != nullptr) apc->AdvanceJobsTo(sim.now());
  if (baseline != nullptr) baseline->AdvanceJobsTo(sim.now());

  Experiment2Result result;
  result.outcomes = CollectOutcomes(queue, target);
  result.deadline_satisfaction = DeadlineSatisfaction(result.outcomes);
  if (apc != nullptr) {
    for (const CycleStats& c : apc->cycles()) {
      result.changes.starts += c.starts;
      result.changes.stops += c.stops;
      result.changes.suspends += c.suspends;
      result.changes.resumes += c.resumes;
      result.changes.migrations += c.migrations;
    }
  } else {
    result.changes = baseline->changes();
  }
  result.disruptive_changes = result.changes.disruptive();
  result.end_time = sim.now();
  return result;
}

std::vector<Experiment2Point> RunExperiment2Sweep(
    const Experiment2Config& base, const std::vector<Seconds>& interarrivals) {
  std::vector<Experiment2Point> sweep;
  for (const Seconds ia : interarrivals) {
    Experiment2Point& point = sweep.emplace_back();
    point.mean_interarrival = ia;
    for (const SchedulerKind kind :
         {SchedulerKind::kFcfs, SchedulerKind::kEdf, SchedulerKind::kApc}) {
      Experiment2Config cfg = base;
      cfg.mean_interarrival = ia;
      cfg.scheduler = kind;
      cfg.trace_run_id = "ia" + FormatNumber(ia, 0);
      point.runs[static_cast<std::size_t>(kind)] = RunExperiment2(cfg);
    }
  }
  return sweep;
}

}  // namespace mwp
