#include "core/apc_controller.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "batch/job_factory.h"
#include "web/workload_generator.h"

namespace mwp {
namespace {

ClusterSpec SmallCluster(int nodes = 1) {
  return ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0});
}

std::unique_ptr<Job> MakeJob(AppId id, Seconds submit, Megacycles work,
                             MHz speed, double factor,
                             Megabytes mem = 750.0) {
  JobProfile p = JobProfile::SingleStage(work, speed, mem);
  return std::make_unique<Job>(id, "job-" + std::to_string(id), p,
                               JobGoal::FromFactor(submit, factor,
                                                   p.min_execution_time()));
}

TEST(ApcControllerTest, RunsSingleJobToCompletion) {
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  queue.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(10.0);
  controller.AdvanceJobsTo(sim.now());

  ASSERT_EQ(queue.num_completed(), 1u);
  const Job* job = queue.Find(1);
  EXPECT_NEAR(*job->completion_time(), 4.0, 1e-6);
  EXPECT_NEAR(job->achieved_utility(), 0.8, 1e-6);
}

TEST(ApcControllerTest, BootCostDelaysCompletion) {
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::PaperMeasured();  // 3.6 s boot
  ApcController controller(&cluster, &queue, cfg);

  queue.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(20.0);
  controller.AdvanceJobsTo(sim.now());

  ASSERT_EQ(queue.num_completed(), 1u);
  EXPECT_NEAR(*queue.Find(1)->completion_time(), 7.6, 1e-6);
}

TEST(ApcControllerTest, CycleStatsRecorded) {
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  queue.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(3.0);

  ASSERT_GE(controller.cycles().size(), 3u);
  const CycleStats& first = controller.cycles().front();
  EXPECT_DOUBLE_EQ(first.time, 0.0);
  EXPECT_EQ(first.num_jobs, 1);
  EXPECT_EQ(first.starts, 1);
  EXPECT_NEAR(first.batch_allocation, 1'000.0, 5.0);
  EXPECT_GT(first.avg_job_rp, 0.7);
}

TEST(ApcControllerTest, JobDetailsWhenEnabled) {
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  cfg.record_job_details = true;
  ApcController controller(&cluster, &queue, cfg);

  queue.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(2.0);

  const auto& cycles = controller.cycles();
  ASSERT_GE(cycles.size(), 2u);
  ASSERT_EQ(cycles[0].job_details.size(), 1u);
  const JobCycleDetail& d0 = cycles[0].job_details[0];
  EXPECT_EQ(d0.id, 1);
  EXPECT_DOUBLE_EQ(d0.work_done, 0.0);
  EXPECT_DOUBLE_EQ(d0.outstanding, 4'000.0);
  EXPECT_TRUE(d0.placed);
  EXPECT_NEAR(d0.allocation, 1'000.0, 5.0);
  // Next cycle reflects one second of progress.
  EXPECT_NEAR(cycles[1].job_details[0].work_done, 1'000.0, 5.0);
}

TEST(ApcControllerTest, MemoryPressureQueuesThirdJob) {
  const ClusterSpec cluster = SmallCluster();  // 2,000 MB: two 750 MB VMs
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  queue.Submit(MakeJob(1, 0.0, 2'000.0, 500.0, 6.0));
  queue.Submit(MakeJob(2, 0.0, 2'000.0, 500.0, 6.0));
  queue.Submit(MakeJob(3, 0.0, 2'000.0, 500.0, 6.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(1.0);

  const CycleStats& first = controller.cycles().front();
  EXPECT_EQ(first.running_jobs, 2);
  EXPECT_EQ(first.queued_jobs, 1);
  // Eventually all three complete.
  sim.RunUntil(30.0);
  controller.AdvanceJobsTo(sim.now());
  EXPECT_EQ(queue.num_completed(), 3u);
}

TEST(ApcControllerTest, CompletionWatchRefillsFreedCapacityAtOnce) {
  // The node holds one of these 1,500 MB jobs at a time, and the next
  // control cycle is far off. Job 1 arrives at t = 1 and starts at once;
  // job 2 arrives at t = 2 and waits. The watch armed when job 1 started
  // fires at its completion, t = 5, and starts job 2 there.
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1'000.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);
  controller.Attach(sim, 0.0);
  for (const AppId id : {1, 2}) {
    sim.ScheduleAt(static_cast<Seconds>(id), [&, id](Simulation& s) {
      queue.Submit(MakeJob(id, s.now(), 4'000.0, 1'000.0, 5.0, 1'500.0));
      controller.OnJobSubmitted(s);
    });
  }
  sim.RunUntil(5.5);
  controller.AdvanceJobsTo(sim.now());

  EXPECT_NEAR(*queue.Find(1)->completion_time(), 5.0, 1e-6);
  const Job* second = queue.Find(2);
  ASSERT_TRUE(second->placed());
  EXPECT_NEAR(second->work_done(), 500.0, 1e-6);  // 0.5 s at 1,000 MHz
}

TEST(ApcControllerTest, TransactionalAppReceivesAllocation) {
  const ClusterSpec cluster = SmallCluster(2);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  TransactionalAppSpec spec;
  spec.id = 1;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 6.0;  // steep curve: one node is clearly short
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 1'500.0;
  controller.AddTransactionalApp(spec, std::make_shared<ConstantRate>(150.0));

  controller.Attach(sim, 0.0);
  sim.RunUntil(3.0);

  const CycleStats& last = controller.cycles().back();
  ASSERT_EQ(last.tx_allocations.size(), 1u);
  EXPECT_NEAR(last.tx_allocations[0], 1'500.0, 10.0);
  EXPECT_GT(last.tx_utilities[0], 0.8);
  EXPECT_GT(last.tx_response_times[0], 0.0);
}

TEST(ApcControllerTest, EqualizesTxAndBatchUnderContention) {
  // One node; a loaded tx app and a batch job must share 1,000 MHz with
  // comparable relative performance (the Experiment Three behaviour).
  const ClusterSpec cluster = SmallCluster(1);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  TransactionalAppSpec spec;
  spec.id = 1;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 900.0;
  controller.AddTransactionalApp(spec, std::make_shared<ConstantRate>(400.0));
  queue.Submit(MakeJob(7, 0.0, 20'000.0, 1'000.0, 2.0));

  controller.Attach(sim, 0.0);
  sim.RunUntil(5.0);

  const CycleStats& c = controller.cycles().back();
  ASSERT_EQ(c.tx_allocations.size(), 1u);
  EXPECT_GT(c.tx_allocations[0], 0.0);
  EXPECT_GT(c.batch_allocation, 0.0);
  EXPECT_NEAR(c.tx_allocations[0] + c.batch_allocation, 1'000.0, 10.0);
  EXPECT_NEAR(c.tx_utilities[0], c.avg_job_rp, 0.15);
}

TEST(ApcControllerTest, SuspendedJobEventuallyResumes) {
  const ClusterSpec cluster = SmallCluster(1);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  // Long relaxed job first; short tight job arrives at t = 2 and must push
  // the long one out (memory admits only one 1,500 MB VM).
  queue.Submit(MakeJob(1, 0.0, 100'000.0, 1'000.0, 10.0, 1'500.0));
  sim.ScheduleAt(2.0, [&queue](Simulation& s) {
    queue.Submit(MakeJob(2, s.now(), 3'000.0, 1'000.0, 1.2, 1'500.0));
  });
  controller.Attach(sim, 0.0);
  sim.RunUntil(200.0);
  controller.AdvanceJobsTo(sim.now());

  EXPECT_EQ(queue.num_completed(), 2u);
  int suspends = 0, resumes = 0;
  for (const CycleStats& c : controller.cycles()) {
    suspends += c.suspends;
    resumes += c.resumes;
  }
  EXPECT_GE(suspends, 1);
  EXPECT_GE(resumes, 1);
  EXPECT_EQ(controller.total_placement_changes(),
            controller.total_placement_changes());
}

TEST(ApcControllerTest, ClusterUtilizationRecorded) {
  const ClusterSpec cluster = SmallCluster(2);  // 2,000 MHz total
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);
  queue.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(2.0);
  const CycleStats& c = controller.cycles().front();
  // One 1,000 MHz job on a 2,000 MHz cluster.
  EXPECT_NEAR(c.cluster_utilization, 0.5, 0.01);
}

TEST(ApcControllerTest, RouterAdmissionRecorded) {
  const ClusterSpec cluster = SmallCluster(1);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);
  TransactionalAppSpec spec;
  spec.id = 1;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 0.8;
  spec.min_response_time = 0.1;
  // Saturation 820 MHz sits between the stability boundary (800) and the
  // router's headroom point (λ·c / 0.95 ≈ 842): the app is placeable and
  // stable, yet the router must shed part of the 1,000 req/s flow.
  spec.saturation_allocation = 820.0;
  controller.AddTransactionalApp(spec, std::make_shared<ConstantRate>(1'000.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(2.0);
  const CycleStats& c = controller.cycles().back();
  ASSERT_EQ(c.tx_admitted_rates.size(), 1u);
  EXPECT_GT(c.tx_admitted_rates[0], 900.0);
  EXPECT_GT(c.tx_rejected_rates[0], 10.0);
  EXPECT_NEAR(c.tx_admitted_rates[0] + c.tx_rejected_rates[0], 1'000.0, 1e-6);
}

TEST(ApcControllerTest, WorkProfilerLoopConvergesToTruth) {
  const ClusterSpec cluster = SmallCluster(2);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  cfg.use_work_profiler = true;
  ApcController controller(&cluster, &queue, cfg);
  TransactionalAppSpec spec;
  spec.id = 1;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 3.0;  // ground truth, hidden from placement
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 1'200.0;
  controller.AddTransactionalApp(spec, std::make_shared<ConstantRate>(200.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(10.0);
  const CycleStats& c = controller.cycles().back();
  // With the estimate converged, the allocation and utility match what the
  // true model yields: saturation (uncontended).
  EXPECT_NEAR(c.tx_allocations[0], 1'200.0, 15.0);
  TransactionalApp truth(spec);
  EXPECT_NEAR(c.tx_utilities[0], truth.UtilityAt(200.0, 1'200.0), 0.02);
}

TEST(ApcControllerTest, QuiescedTxAppYieldsEverything) {
  const ClusterSpec cluster = SmallCluster(1);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  TransactionalAppSpec spec;
  spec.id = 1;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 900.0;
  controller.AddTransactionalApp(spec, std::make_shared<ConstantRate>(0.0));
  queue.Submit(MakeJob(3, 0.0, 4'000.0, 1'000.0, 5.0));

  controller.Attach(sim, 0.0);
  sim.RunUntil(3.0);
  const CycleStats& c = controller.cycles().back();
  EXPECT_DOUBLE_EQ(c.tx_allocations[0], 0.0);
  EXPECT_NEAR(c.batch_allocation, 1'000.0, 5.0);
  EXPECT_DOUBLE_EQ(c.tx_utilities[0], 1.0);
}


// ---------------------------------------------------------------------------
// Out-of-band repair cycles (OnNodeFault) and VM operation failures.
// ---------------------------------------------------------------------------

TEST(ApcControllerRepairTest, RepairRequeuesCrashedJobAndRedispatchesIt) {
  ClusterSpec cluster = SmallCluster(3);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 10.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  Job& j1 = queue.Submit(MakeJob(1, 0.0, 20'000.0, 1'000.0, 2.0));
  Job& j2 = queue.Submit(MakeJob(2, 0.0, 20'000.0, 1'000.0, 2.0));
  j1.set_checkpoint_interval(2.0);
  j2.set_checkpoint_interval(2.0);

  controller.Attach(sim, 0.0);
  NodeId dead = kInvalidNode;
  sim.ScheduleAt(5.0, [&](Simulation& s) {
    ASSERT_TRUE(j1.placed());
    ASSERT_TRUE(j2.placed());
    ASSERT_NE(j1.node(), j2.node());  // 3 nodes, 2 jobs: spread out
    dead = j1.node();
    cluster.SetNodeOffline(dead);
    controller.OnNodeFault(s);
  });
  sim.RunUntil(6.0);

  ASSERT_EQ(controller.repairs().size(), 1u);
  const RepairStats& repair = controller.repairs()[0];
  EXPECT_DOUBLE_EQ(repair.time, 5.0);
  EXPECT_EQ(repair.jobs_requeued, 1);
  EXPECT_EQ(repair.tx_displaced, 0);
  EXPECT_EQ(repair.job_placements, 1);

  // The job was rolled back to its t=4 checkpoint (1,000 MHz x 4 s) and
  // immediately restarted on a surviving node by the repair dispatch.
  EXPECT_EQ(j1.crash_count(), 1);
  EXPECT_DOUBLE_EQ(j1.work_done(), 4'000.0);
  ASSERT_TRUE(j1.placed());
  EXPECT_NE(j1.node(), dead);
  EXPECT_TRUE(cluster.node_online(j1.node()));
  // The survivor was untouched.
  EXPECT_EQ(j2.crash_count(), 0);
}

TEST(ApcControllerRepairTest, RepairRestartsDisplacedTxInstances) {
  ClusterSpec cluster = SmallCluster(3);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 10.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  // 1,500 MHz of demand on 1,000 MHz nodes needs both allowed instances up,
  // leaving one node uncovered — the slot the repair can restart into.
  TransactionalAppSpec spec;
  spec.id = 1;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 3'000.0;
  spec.max_instances = 2;
  controller.AddTransactionalApp(spec, std::make_shared<ConstantRate>(1'500.0));

  controller.Attach(sim, 0.0);
  NodeId dead = kInvalidNode;
  sim.ScheduleAt(5.0, [&](Simulation& s) {
    ASSERT_EQ(controller.tx_instances(0).size(), 2u);
    dead = controller.tx_instances(0).front();
    cluster.SetNodeOffline(dead);
    controller.OnNodeFault(s);
  });
  sim.RunUntil(6.0);

  ASSERT_EQ(controller.repairs().size(), 1u);
  const RepairStats& repair = controller.repairs()[0];
  EXPECT_EQ(repair.tx_displaced, 1);
  EXPECT_EQ(repair.tx_replaced, 1);  // restarted on the uncovered node
  EXPECT_EQ(repair.failed_operations, 0);
  const std::vector<NodeId>& instances = controller.tx_instances(0);
  ASSERT_EQ(instances.size(), 2u);
  for (NodeId n : instances) {
    EXPECT_NE(n, dead);
    EXPECT_TRUE(cluster.node_online(n));
  }
}

TEST(ApcControllerRepairTest, ChurnBoundLimitsRepairActions) {
  ClusterSpec cluster = SmallCluster(3);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 10.0;
  cfg.costs = VmCostModel::Free();
  cfg.repair_max_changes = 0;  // diagnose only, change nothing
  ApcController controller(&cluster, &queue, cfg);

  Job& j1 = queue.Submit(MakeJob(1, 0.0, 20'000.0, 1'000.0, 2.0));
  controller.Attach(sim, 0.0);
  sim.ScheduleAt(5.0, [&](Simulation& s) {
    cluster.SetNodeOffline(j1.node());
    controller.OnNodeFault(s);
  });
  sim.RunUntil(6.0);

  ASSERT_EQ(controller.repairs().size(), 1u);
  const RepairStats& repair = controller.repairs()[0];
  EXPECT_EQ(repair.jobs_requeued, 1);   // crash bookkeeping is not churn
  EXPECT_EQ(repair.job_placements, 0);  // ... but restarts are
  EXPECT_FALSE(j1.placed());            // waits for the next full cycle
}

TEST(ApcControllerRepairTest, VetoedStartIsRetriedNextCycle) {
  const ClusterSpec cluster = SmallCluster(1);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  int calls = 0;
  cfg.vm_operation_oracle = [&calls](PlacementChange::Kind, AppId) {
    return ++calls <= 1;  // the first start attempt fails, the rest succeed
  };
  ApcController controller(&cluster, &queue, cfg);

  Job& job = queue.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(1.5);

  // Cycle 0's start was vetoed; cycle 1 retried and succeeded.
  ASSERT_GE(controller.cycles().size(), 2u);
  EXPECT_EQ(controller.cycles()[0].failed_operations, 1);
  EXPECT_FALSE(controller.cycles()[0].starts > 0 &&
               controller.cycles()[0].queued_jobs == 0);
  EXPECT_EQ(controller.cycles()[1].failed_operations, 0);
  EXPECT_TRUE(job.placed());
  // Work only accrues from the successful second start.
  controller.AdvanceJobsTo(1.5);
  EXPECT_NEAR(job.work_done(), 500.0, 1.0);
}

// Every field is checked when the controller is built, not on the first
// solve, which may run on a solver-pool thread that cannot report it.
TEST(ApcControllerConfigTest, InvalidFieldsThrowAtConstruction) {
  using Config = ApcController::Config;
  struct Case {
    const char* field;
    std::function<void(Config&)> set;
  };
  const std::vector<Case> cases = {
      {"control_cycle", [](Config& c) { c.control_cycle = 0.0; }},
      {"repair_max_changes", [](Config& c) { c.repair_max_changes = -1; }},
      {"shard_cell_size", [](Config& c) { c.shard_cell_size = -1; }},
      {"shard_cell_threads", [](Config& c) { c.shard_cell_threads = -1; }},
      {"shard_max_cross_cell_moves",
       [](Config& c) { c.shard_max_cross_cell_moves = -1; }},
      {"optimizer.max_sweeps", [](Config& c) { c.optimizer.max_sweeps = 0; }},
      {"optimizer.search_threads",
       [](Config& c) { c.optimizer.search_threads = -1; }},
      {"evaluator.tie_tolerance",
       [](Config& c) { c.optimizer.evaluator.tie_tolerance = -0.01; }},
      {"distributor.level_tolerance",
       [](Config& c) {
         c.optimizer.evaluator.distributor.level_tolerance = 0.0;
       }},
      {"distributor.probe_delta",
       [](Config& c) { c.optimizer.evaluator.distributor.probe_delta = 0.0; }},
      {"distributor.bisection_iters",
       [](Config& c) {
         c.optimizer.evaluator.distributor.bisection_iters = 0;
       }},
      {"objective.kind",
       [](Config& c) {
         c.optimizer.evaluator.objective.kind =
             static_cast<FairnessObjectiveKind>(7);
       }},
      {"objective.karma_cap",
       [](Config& c) {
         c.optimizer.evaluator.objective.kind = FairnessObjectiveKind::kKarma;
         c.optimizer.evaluator.objective.karma_cap = 0.0;
       }},
      {"objective.karma_weight",
       [](Config& c) {
         c.optimizer.evaluator.objective.kind = FairnessObjectiveKind::kKarma;
         c.optimizer.evaluator.objective.karma_weight = -0.5;
       }},
      {"objective.pf_epsilon",
       [](Config& c) {
         c.optimizer.evaluator.objective.kind =
             FairnessObjectiveKind::kProportionalFairness;
         c.optimizer.evaluator.objective.pf_epsilon = 0.0;
       }},
      {"costs.suspend_s_per_mb",
       [](Config& c) {
         c.costs.suspend_s_per_mb = std::numeric_limits<double>::quiet_NaN();
       }},
      {"costs.resume_s_per_mb",
       [](Config& c) { c.costs.resume_s_per_mb = -0.01; }},
      {"costs.migrate_s_per_mb",
       [](Config& c) {
         c.costs.migrate_s_per_mb = std::numeric_limits<double>::infinity();
       }},
      {"costs.boot_s", [](Config& c) { c.costs.boot_s = -1.0; }},
  };
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  for (const Case& c : cases) {
    Config cfg;
    c.set(cfg);
    EXPECT_THROW({ ApcController controller(&cluster, &queue, cfg); },
                 std::logic_error)
        << c.field;
  }
}

TEST(ApcControllerConfigTest, UnusedObjectiveParametersAreNotChecked) {
  // Only the configured objective's parameters must be in range.
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  ApcController::Config cfg;
  cfg.optimizer.evaluator.objective.karma_cap = 0.0;
  cfg.optimizer.evaluator.objective.pf_epsilon = 0.0;
  EXPECT_NO_THROW({ ApcController controller(&cluster, &queue, cfg); });
}

}  // namespace
}  // namespace mwp
