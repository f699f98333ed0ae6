#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "batch/job_metrics.h"
#include "batch/job_queue.h"
#include "core/apc_controller.h"
#include "exp/experiment1.h"
#include "obs/cycle_trace.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace mwp {
namespace {

TEST(ControllerTraceTest, Experiment1TraceReproducesReportedSeries) {
  // The published Figure 2 series (Experiment1Result::hypothetical_rp) is
  // derived from the controller's CycleStats; the CycleTrace stream must
  // carry the exact same per-cycle numbers, so the paper table is
  // recomputable from an exported trace alone.
  obs::TraceRecorder recorder;
  Experiment1Config config;
  config.num_jobs = 25;
  config.num_nodes = 5;
  config.trace = &recorder;
  const Experiment1Result result = RunExperiment1(config);
  ASSERT_EQ(result.completed, 25u);

  const auto traces = recorder.Traces();
  ASSERT_FALSE(traces.empty());

  // Reconstruct the series from the trace: one point per cycle with jobs.
  std::vector<std::pair<Seconds, double>> from_trace;
  for (const obs::CycleTrace& t : traces) {
    if (t.num_jobs > 0) from_trace.emplace_back(t.time, t.avg_job_rp);
  }
  const auto& points = result.hypothetical_rp.points();
  ASSERT_EQ(from_trace.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_trace[i].first, points[i].time) << "cycle " << i;
    EXPECT_DOUBLE_EQ(from_trace[i].second, points[i].value) << "cycle " << i;
  }

  // Structural invariants of every record.
  int prev_cycle = -1;
  for (const obs::CycleTrace& t : traces) {
    EXPECT_EQ(t.cycle, prev_cycle + 1);
    prev_cycle = t.cycle;
    EXPECT_TRUE(std::is_sorted(t.rp_before.begin(), t.rp_before.end()));
    EXPECT_TRUE(std::is_sorted(t.rp_after.begin(), t.rp_after.end()));
    EXPECT_EQ(static_cast<int>(t.rp_after.size()), t.num_jobs);
    EXPECT_EQ(t.node_health.online, 5);
    EXPECT_EQ(t.node_health.offline, 0);
    EXPECT_GE(t.solver_seconds, 0.0);
    if (!t.shortcut) {
      EXPECT_GE(t.evaluations, 1);
    }
  }
  // The identical-job workload admits a no-change policy (§5.1): the trace
  // must confirm the absence of disruptive changes cycle by cycle.
  for (const obs::CycleTrace& t : traces) {
    EXPECT_EQ(t.suspends, 0);
    EXPECT_EQ(t.resumes, 0);
    EXPECT_EQ(t.migrations, 0);
  }
  // The PR-1 evaluation cache is on by default; a loaded run must show
  // cache traffic in at least one cycle.
  const bool cache_seen =
      std::any_of(traces.begin(), traces.end(), [](const obs::CycleTrace& t) {
        return t.cache_hits + t.cache_misses > 0;
      });
  EXPECT_TRUE(cache_seen);
}

ClusterSpec TwoNodes() {
  return ClusterSpec::Uniform(2, NodeSpec{2, 1'000.0, 8'192.0});
}

// Queues a single-stage job with a relative goal counted from now and lets
// the controller dispatch it, as a job scheduler does on arrival.
void SubmitJob(Simulation& sim, JobQueue& queue, ApcController& controller,
               AppId id, JobProfile profile, double goal_factor) {
  const Seconds min_exec = profile.min_execution_time();
  queue.Submit(std::make_unique<Job>(
      id, "etl-" + std::to_string(id), std::move(profile),
      JobGoal::FromFactor(sim.now(), goal_factor, min_exec)));
  controller.OnJobSubmitted(sim);
}

TEST(ControllerTraceTest, MetricsRegistrySeesControllerAndSimulation) {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder recorder;
  ApcController::Config cfg;
  cfg.control_cycle = 10.0;
  cfg.costs = VmCostModel::Free();
  cfg.trace = &recorder;
  cfg.metrics = &metrics;

  const ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  ApcController controller(&cluster, &queue, cfg);
  Simulation sim;
  sim.set_metrics(&metrics);
  controller.Attach(sim);
  SubmitJob(sim, queue, controller, 1,
            JobProfile::SingleStage(20'000.0, 2'000.0, 1'024.0), 3.0);
  SubmitJob(sim, queue, controller, 2,
            JobProfile::SingleStage(10'000.0, 1'000.0, 512.0), 3.0);
  sim.RunUntil(100.0);
  controller.AdvanceJobsTo(sim.now());

  EXPECT_EQ(metrics.counter("apc.cycles").value(), recorder.size());
  EXPECT_GT(recorder.size(), 0u);
  EXPECT_EQ(queue.num_completed(), 2u);
  EXPECT_GT(metrics.counter("sim.events_executed").value(), 0u);
  // Each cycle observes one solver time.
  EXPECT_EQ(metrics.histogram("apc.solver_seconds").count(), recorder.size());
  // Placement changes flow into the counter: both jobs started.
  EXPECT_GE(metrics.counter("apc.placement_changes").value(), 2u);
}

TEST(ControllerTraceTest, NoSinksMeansNoTraces) {
  // Off by default: a run without sinks records nothing (and the branch is
  // the only cost — covered by the benchmark acceptance check).
  ApcController::Config cfg;
  cfg.control_cycle = 10.0;
  cfg.costs = VmCostModel::Free();
  const ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  ApcController controller(&cluster, &queue, cfg);
  Simulation sim;
  controller.Attach(sim);
  SubmitJob(sim, queue, controller, 1,
            JobProfile::SingleStage(5'000.0, 1'000.0, 512.0), 3.0);
  sim.RunUntil(50.0);
  controller.AdvanceJobsTo(sim.now());
  EXPECT_EQ(CollectOutcomes(queue).size(), 1u);
}

}  // namespace
}  // namespace mwp
