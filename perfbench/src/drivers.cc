// Shared driver pieces: instance seeds, the one-lane configuration, timed
// control cycles and arrival decisions for the phase-driven workloads,
// plus the traced run's probe calls on each committed placement.
#include <algorithm>
#include <optional>
#include <utility>

#include "batch/job_metrics.h"
#include "core/evaluator.h"
#include "core/load_distributor.h"
#include "core/sharded_optimizer.h"
#include "core/snapshot_slice.h"
#include "drivers.h"

namespace perfbench {

using mwp::PlacementMatrix;
using mwp::PlacementSnapshot;

namespace {

/// Untimed Distribute calls before the timed ones: the first call on a
/// fresh scratch fills the batch-demand memo, which the optimizer's own
/// calls find warm.
constexpr int kDistributeWarmup = 1;
constexpr int kDistributeTimed = 3;

void TimeDistribute(const PlacementSnapshot& snapshot, const PlacementMatrix& p,
                    const mwp::LoadDistributor::Options& options,
                    ProbeTotals& probes) {
  if (!snapshot.IsFeasible(p)) return;
  const mwp::LoadDistributor distributor(&snapshot, options);
  mwp::DistributorScratch scratch;
  for (int i = 0; i < kDistributeWarmup; ++i) distributor.Distribute(p, scratch);
  const std::uint64_t flow_before = scratch.stats().flow_probes;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kDistributeTimed; ++i) distributor.Distribute(p, scratch);
  probes.distribute_s +=
      std::chrono::duration<double>(Clock::now() - start).count();
  probes.distribute_timed += kDistributeTimed;
  probes.flow_probes += scratch.stats().flow_probes - flow_before;
}

/// Re-runs Distribute on the committed placement the way the solve ran it:
/// on the whole snapshot for a monolithic solve, per cell for a sharded one.
void ProbeDistribute(const mwp::ApcController::Config& config,
                     const PlacementSnapshot& snapshot,
                     const PlacementMatrix& placement, ProbeTotals& probes) {
  const mwp::LoadDistributor::Options& options =
      config.optimizer.evaluator.distributor;
  if (config.shard_cell_size <= 0) {
    TimeDistribute(snapshot, placement, options, probes);
    return;
  }
  const mwp::CellPartition partition = mwp::CellPartition::Build(
      snapshot.num_nodes(), config.shard_cell_size,
      config.shard_partition_seed);
  const mwp::CellAssignment assignment =
      mwp::CellAssignment::Build(snapshot, partition);
  for (int cell = 0; cell < partition.num_cells(); ++cell) {
    const mwp::SnapshotSlice slice(snapshot, partition, assignment, cell);
    const PlacementSnapshot& local = slice.snapshot();
    PlacementMatrix p(local.num_entities(), local.num_nodes());
    for (int e = 0; e < local.num_entities(); ++e) {
      const int ge = slice.global_entities()[static_cast<std::size_t>(e)];
      for (int n = 0; n < local.num_nodes(); ++n) {
        p.at(e, n) =
            placement.at(ge, slice.global_nodes()[static_cast<std::size_t>(n)]);
      }
    }
    TimeDistribute(local, p, options, probes);
  }
}

void ProbeEvaluate(const mwp::ApcController::Config& config,
                   const PlacementSnapshot& snapshot,
                   const PlacementMatrix& placement, ProbeTotals& probes) {
  const mwp::PlacementEvaluator evaluator(&snapshot, config.optimizer.evaluator);
  Clock::time_point start = Clock::now();
  evaluator.Evaluate(placement);
  probes.evaluate_cold_s.push_back(
      std::chrono::duration<double>(Clock::now() - start).count());
  start = Clock::now();
  evaluator.Evaluate(placement);
  probes.evaluate_warm_s.push_back(
      std::chrono::duration<double>(Clock::now() - start).count());
}

/// Feasibility of the solved placement. With Inject::kInfeasible the first
/// cycle that has a job sees that job placed on two nodes.
bool CheckFeasible(const PlacementSnapshot& snapshot,
                   const PlacementMatrix& placement, Inject inject,
                   const RunRecord& record) {
  const bool plant = inject == Inject::kInfeasible &&
                     record.infeasible_cycles == 0 && snapshot.num_jobs() > 0;
  if (!plant) return snapshot.IsFeasible(placement);
  PlacementMatrix planted = placement;
  planted.at(0, 0) += 1;
  planted.at(0, 1) += 1;
  return snapshot.IsFeasible(planted);
}

}  // namespace

std::uint64_t InstanceSeed(std::uint64_t seed, int k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 32;  // 32 bits: short enough to type back in
}

mwp::ApcController::Config OneLaneConfig() {
  mwp::ApcController::Config config;
  config.optimizer.search_threads = kLanes;
  config.shard_cell_threads = kLanes;
  return config;
}

void TimedCycle(mwp::ApcController& controller, mwp::Simulation& sim,
                const CycleContext& context, Tracer& tracer,
                RunRecord& record) {
  const std::uint64_t group = tracer.NewGroup();
  CycleSample sample;
  sample.phased = true;
  std::optional<mwp::CycleCapture> capture;
  std::optional<mwp::CycleSolution> solution;
  tracer.Time("cycle", group, [&] {
    sample.capture_s = tracer.Time("core.capture", group, [&] {
      capture.emplace(controller.CaptureCycle(sim.now()));
    });
    sample.solve_s = tracer.Time("core.solve", group, [&] {
      solution.emplace(controller.SolveCycle(capture->snapshot));
    });
    const mwp::PlacementOptimizer::Result& result = solution->result;
    sample.search = !result.used_shortcut;
    tracer.Exclude("bench.check", group, [&] {
      ++record.cycles_checked;
      if (!CheckFeasible(capture->snapshot, result.placement, context.inject,
                         record)) {
        ++record.infeasible_cycles;
      }
    });
    if (tracer.recording() && sample.search) {
      tracer.Exclude("bench.probe", group, [&] {
        ProbeDistribute(*context.config, capture->snapshot, result.placement,
                        record.probes);
        if (context.evaluate_probe) {
          ProbeEvaluate(*context.config, capture->snapshot, result.placement,
                        record.probes);
        }
      });
    }
    sample.evaluations = result.evaluations;
    sample.cache_hits = result.cache_hits;
    sample.cache_misses = result.cache_misses;
    sample.distribute_calls = result.distribute_calls;
    sample.cross_cell_migrations = solution->cross_cell_migrations;
    sample.cell_solve_s = solution->cell_solver_seconds;
    sample.commit_s = tracer.Time("core.commit", group, [&] {
      controller.CommitCycle(*capture, std::move(*solution), sim.now(), &sim);
    });
  });
  sample.latency_s = sample.capture_s + sample.solve_s + sample.commit_s;
  record.cycles.push_back(std::move(sample));
}

void TimedDispatch(mwp::ApcController& controller, mwp::Simulation& sim,
                   mwp::JobQueue& queue, Tracer& tracer, RunRecord& record) {
  const std::uint64_t group = tracer.NewGroup();
  DispatchSample sample;
  sample.history_jobs = queue.size();
  std::size_t awaiting = 0;
  tracer.Time("arrival", group, [&] {
    if (tracer.recording()) {
      tracer.Exclude("bench.count", group,
                     [&] { awaiting = queue.AwaitingPlacement().size(); });
    }
    sample.seconds = tracer.Time("core.dispatch", group,
                                 [&] { controller.OnJobSubmitted(sim); });
    if (tracer.recording()) {
      tracer.Exclude("bench.count", group, [&] {
        sample.placed =
            static_cast<int>(awaiting - queue.AwaitingPlacement().size());
      });
    }
  });
  record.dispatches.push_back(sample);
}

void RecordLanes(const mwp::ApcController::Config& config,
                 const mwp::ClusterSpec& cluster, RunRecord& record) {
  mwp::JobQueue empty;
  const PlacementSnapshot snapshot = PlacementSnapshot::Capture(
      cluster, 0.0, config.control_cycle, empty, config.costs);
  record.search_lanes =
      mwp::PlacementOptimizer(&snapshot, config.optimizer).search_lanes();
  record.cell_lanes = 0;
  if (config.shard_cell_size > 0) {
    mwp::ShardedPlacementOptimizer::Options options;
    options.cell_size = config.shard_cell_size;
    options.cell_threads = config.shard_cell_threads;
    options.cell = config.optimizer;
    record.cell_lanes =
        mwp::ShardedPlacementOptimizer(&snapshot, options).cell_lanes();
  }
}

void RecordOutcomes(const mwp::JobQueue& queue,
                    const mwp::ApcController& controller, RunRecord& record) {
  Outcomes& out = record.outcomes;
  out.submitted = queue.size();
  for (const mwp::JobOutcomeRecord& r : mwp::CollectOutcomes(queue)) {
    ++out.completed;
    out.rp_sum += r.achieved_utility;
    if (!r.met_deadline()) ++out.goal_missed;
  }
  for (const mwp::CycleStats& c : controller.cycles()) {
    for (std::size_t i = 0; i < c.tx_response_times.size(); ++i) {
      const double goal =
          controller.tx_app(static_cast<int>(i)).spec().response_time_goal;
      ++out.tx_samples;
      if (!(c.tx_response_times[i] <= goal)) ++out.tx_missed;
    }
    out.disruptive += c.suspends + c.resumes + c.migrations;
    if (c.num_jobs > 0) out.peak_avg_rp = std::max(out.peak_avg_rp, c.avg_job_rp);
  }
}

}  // namespace perfbench
