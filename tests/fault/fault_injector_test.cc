#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_plan.h"

namespace mwp {
namespace {

ClusterSpec TwoNodes() {
  return ClusterSpec::Uniform(2, NodeSpec{1, 1'000.0, 2'000.0});
}

Job& SubmitJob(JobQueue& queue, AppId id, Megacycles work = 4'000.0) {
  JobProfile p = JobProfile::SingleStage(work, 1'000.0, 750.0);
  return queue.Submit(std::make_unique<Job>(
      id, std::string("j").append(std::to_string(id)), p,
      JobGoal::FromFactor(0.0, 5.0, p.min_execution_time())));
}

TEST(FaultPlanTest, ValidateRejectsBadEntries) {
  const ClusterSpec cluster = TwoNodes();
  FaultPlan plan;
  plan.crashes.push_back({5, 10.0, 0.0});  // node 5 does not exist
  EXPECT_THROW(plan.Validate(cluster), std::logic_error);

  plan.crashes.clear();
  plan.slowdowns.push_back({0, 1.0, 1.5, 10.0});  // factor out of range
  EXPECT_THROW(plan.Validate(cluster), std::logic_error);

  plan.slowdowns.clear();
  plan.vm_operation_failure_rate = 2.0;
  EXPECT_THROW(plan.Validate(cluster), std::logic_error);
}

TEST(FaultInjectorTest, CrashTakesNodeOfflineAndKillsJobs) {
  ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  Job& job = SubmitJob(queue, 1);
  job.set_checkpoint_interval(1.0);

  FaultPlan plan;
  plan.crashes.push_back({0, 2.5, 0.0});
  FaultInjector injector(&cluster, &queue, plan);

  Simulation sim;
  job.Place(0, 0.0, 0.0);
  job.SetAllocation(1'000.0);
  // The controller would normally advance jobs; do it from an event at the
  // crash instant, scheduled before Attach so it fires first (insertion
  // order breaks the tie) and the rollback is observable.
  sim.ScheduleAt(2.5, [&](Simulation&) { job.AdvanceTo(0.0, 2.5); });
  injector.Attach(sim);
  sim.RunToCompletion();

  EXPECT_FALSE(cluster.node_online(0));
  EXPECT_TRUE(cluster.node_online(1));
  EXPECT_EQ(job.status(), JobStatus::kNotStarted);
  EXPECT_DOUBLE_EQ(job.work_done(), 2'000.0);  // rolled back to t=2 checkpoint
  EXPECT_EQ(injector.num_crashes_fired(), 1);
  EXPECT_DOUBLE_EQ(injector.total_work_lost(), 500.0);
  ASSERT_EQ(injector.trace().size(), 1u);
  EXPECT_NE(injector.trace()[0].find("crash node=0"), std::string::npos);
}

TEST(FaultInjectorTest, SuspendedJobsSurviveCrash) {
  ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  Job& job = SubmitJob(queue, 1);
  job.Place(0, 0.0, 0.0);
  job.SetAllocation(1'000.0);
  job.AdvanceTo(0.0, 1.0);
  job.Suspend(1.0);

  FaultPlan plan;
  plan.crashes.push_back({0, 2.0, 0.0});
  FaultInjector injector(&cluster, &queue, plan);
  Simulation sim;
  injector.Attach(sim);
  sim.RunToCompletion();

  EXPECT_EQ(job.status(), JobStatus::kSuspended);
  EXPECT_DOUBLE_EQ(job.work_done(), 1'000.0);
  EXPECT_DOUBLE_EQ(injector.total_work_lost(), 0.0);
}

TEST(FaultInjectorTest, RestoreBringsNodeBack) {
  ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  FaultPlan plan;
  plan.crashes.push_back({1, 5.0, 10.0});
  FaultInjector injector(&cluster, &queue, plan);
  Simulation sim;
  injector.Attach(sim);

  sim.RunUntil(5.0);
  EXPECT_FALSE(cluster.node_online(1));
  sim.RunUntil(14.9);
  EXPECT_FALSE(cluster.node_online(1));
  sim.RunUntil(15.0);
  EXPECT_TRUE(cluster.node_online(1));
  ASSERT_EQ(injector.trace().size(), 2u);
  EXPECT_NE(injector.trace()[1].find("restore node=1"), std::string::npos);
}

TEST(FaultInjectorTest, SlowdownDegradesThenLifts) {
  ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  FaultPlan plan;
  plan.slowdowns.push_back({0, 2.0, 0.25, 3.0});
  FaultInjector injector(&cluster, &queue, plan);
  Simulation sim;
  injector.Attach(sim);

  sim.RunUntil(2.0);
  EXPECT_EQ(cluster.node_state(0), NodeState::kDegraded);
  EXPECT_DOUBLE_EQ(cluster.available_cpu(0), 250.0);
  sim.RunUntil(5.0);
  EXPECT_EQ(cluster.node_state(0), NodeState::kOnline);
  EXPECT_DOUBLE_EQ(cluster.available_cpu(0), 1'000.0);
}

TEST(FaultInjectorTest, SlowdownOnCrashedNodeIsDropped) {
  ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  FaultPlan plan;
  plan.crashes.push_back({0, 1.0, 0.0});
  plan.slowdowns.push_back({0, 2.0, 0.5, 5.0});
  FaultInjector injector(&cluster, &queue, plan);
  Simulation sim;
  injector.Attach(sim);
  sim.RunToCompletion();
  EXPECT_EQ(cluster.node_state(0), NodeState::kOffline);
  EXPECT_EQ(injector.trace().size(), 1u);  // only the crash was recorded
}

struct RecordingListener : FaultListener {
  std::vector<std::string> events;
  void OnNodeCrashed(Simulation& sim, const NodeCrashReport& r) override {
    events.push_back("crash@" + std::to_string(sim.now()) + " node " +
                     std::to_string(r.node));
  }
  void OnNodeRestored(Simulation& sim, NodeId node) override {
    events.push_back("restore@" + std::to_string(sim.now()) + " node " +
                     std::to_string(node));
  }
};

TEST(FaultInjectorTest, ListenersSeeClusterStateAlreadyUpdated) {
  ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  FaultPlan plan;
  plan.crashes.push_back({0, 3.0, 4.0});
  FaultInjector injector(&cluster, &queue, plan);

  struct StateProbe : FaultListener {
    const ClusterSpec* cluster;
    bool offline_at_crash = false;
    bool online_at_restore = false;
    void OnNodeCrashed(Simulation&, const NodeCrashReport& r) override {
      offline_at_crash = !cluster->node_online(r.node);
    }
    void OnNodeRestored(Simulation&, NodeId node) override {
      online_at_restore = cluster->node_online(node);
    }
  } probe;
  probe.cluster = &cluster;
  injector.AddListener(&probe);

  Simulation sim;
  injector.Attach(sim);
  sim.RunToCompletion();
  EXPECT_TRUE(probe.offline_at_crash);
  EXPECT_TRUE(probe.online_at_restore);
}

TEST(FaultInjectorTest, DeterministicTraceAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    ClusterSpec cluster = TwoNodes();
    JobQueue queue;
    Job& job = SubmitJob(queue, 1);
    FaultPlan plan;
    plan.seed = seed;
    plan.crashes.push_back({0, 2.0, 5.0});
    plan.slowdowns.push_back({1, 3.0, 0.5, 2.0});
    plan.vm_operation_failure_rate = 0.5;
    FaultInjector injector(&cluster, &queue, plan);
    Simulation sim;
    injector.Attach(sim);
    job.Place(0, 0.0, 0.0);
    job.SetAllocation(500.0);
    sim.RunToCompletion();
    for (int i = 0; i < 8; ++i) {
      injector.ShouldFailOperation(PlacementChange::Kind::kStart, 42);
    }
    return injector.trace();
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a, b);
  // A different seed changes the operation-failure pattern (with rate 0.5
  // over 8 draws, identical traces are overwhelmingly unlikely).
  const auto c = run(1234567);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, OperationOracleOnlyFailsStartResumeMigrate) {
  ClusterSpec cluster = TwoNodes();
  JobQueue queue;
  FaultPlan plan;
  plan.vm_operation_failure_rate = 1.0;  // every eligible op fails
  FaultInjector injector(&cluster, &queue, plan);
  EXPECT_TRUE(injector.ShouldFailOperation(PlacementChange::Kind::kStart, 1));
  EXPECT_TRUE(injector.ShouldFailOperation(PlacementChange::Kind::kResume, 1));
  EXPECT_TRUE(injector.ShouldFailOperation(PlacementChange::Kind::kMigrate, 1));
  EXPECT_FALSE(injector.ShouldFailOperation(PlacementChange::Kind::kStop, 1));
  EXPECT_FALSE(injector.ShouldFailOperation(PlacementChange::Kind::kSuspend, 1));
  EXPECT_EQ(injector.num_operations_failed(), 3);
}

}  // namespace
}  // namespace mwp
