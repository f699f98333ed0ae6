#include "core/constraints.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/apc_controller.h"
#include "core/placement_optimizer.h"
#include "tests/core/test_fixtures.h"
#include "web/workload_generator.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

TEST(PlacementConstraintsTest, UnconstrainedAllowsEverything) {
  PlacementConstraints c;
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(c.AllowsNode(1, 0));
  EXPECT_TRUE(c.AllowsCollocation(1, 2));
}

TEST(PlacementConstraintsTest, PinningRestrictsNodes) {
  PlacementConstraints c;
  c.PinTo(7, {1, 3});
  EXPECT_FALSE(c.AllowsNode(7, 0));
  EXPECT_TRUE(c.AllowsNode(7, 1));
  EXPECT_FALSE(c.AllowsNode(7, 2));
  EXPECT_TRUE(c.AllowsNode(7, 3));
  // Other applications are unaffected.
  EXPECT_TRUE(c.AllowsNode(8, 0));
}

TEST(PlacementConstraintsTest, ClearPinRemovesRestriction) {
  PlacementConstraints c;
  c.PinTo(7, {1});
  c.ClearPin(7);
  EXPECT_TRUE(c.AllowsNode(7, 0));
}

TEST(PlacementConstraintsTest, EmptyPinRejected) {
  PlacementConstraints c;
  EXPECT_THROW(c.PinTo(7, {}), std::logic_error);
}

TEST(PlacementConstraintsTest, SeparationIsSymmetric) {
  PlacementConstraints c;
  c.Separate(1, 2);
  EXPECT_FALSE(c.AllowsCollocation(1, 2));
  EXPECT_FALSE(c.AllowsCollocation(2, 1));
  EXPECT_TRUE(c.AllowsCollocation(1, 3));
}

TEST(PlacementConstraintsTest, SelfSeparationRejected) {
  PlacementConstraints c;
  EXPECT_THROW(c.Separate(4, 4), std::logic_error);
}

TEST(PlacementConstraintsTest, DuplicateSeparationIdempotent) {
  PlacementConstraints c;
  c.Separate(1, 2);
  c.Separate(2, 1);
  EXPECT_EQ(c.separations().size(), 1u);
}

TEST(ConstrainedFeasibilityTest, PinningEnforcedByIsFeasible) {
  SnapshotBuilder b(TinyCluster(3));
  b.AddJob(42, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  PlacementSnapshot snap = b.Build();
  PlacementConstraints c;
  c.PinTo(42, {2});
  snap.set_constraints(c);

  PlacementMatrix p(1, 3);
  p.at(0, 0) = 1;
  EXPECT_FALSE(snap.IsFeasible(p));
  p.at(0, 0) = 0;
  p.at(0, 2) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
}

TEST(ConstrainedFeasibilityTest, AntiCollocationEnforced) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  PlacementSnapshot snap = b.Build();
  PlacementConstraints c;
  c.Separate(1, 2);
  snap.set_constraints(c);

  PlacementMatrix together(2, 2);
  together.at(0, 0) = 1;
  together.at(1, 0) = 1;
  EXPECT_FALSE(snap.IsFeasible(together));

  PlacementMatrix apart(2, 2);
  apart.at(0, 0) = 1;
  apart.at(1, 1) = 1;
  EXPECT_TRUE(snap.IsFeasible(apart));
}

TEST(ConstrainedFeasibilityTest, SeparationWithAbsentPartyIgnored) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  PlacementSnapshot snap = b.Build();
  PlacementConstraints c;
  c.Separate(1, 999);  // 999 is not in the snapshot
  snap.set_constraints(c);
  PlacementMatrix p(1, 1);
  p.at(0, 0) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
}

TEST(ConstrainedOptimizerTest, OptimizerHonoursPinning) {
  SnapshotBuilder b(TinyCluster(3));
  b.AddJob(42, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  PlacementSnapshot snap = b.Build();
  PlacementConstraints c;
  c.PinTo(42, {1});
  snap.set_constraints(c);

  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  ASSERT_EQ(result.placement.InstanceCount(0), 1);
  EXPECT_EQ(result.placement.NodesOf(0), (std::vector<int>{1}));
}

TEST(ConstrainedOptimizerTest, OptimizerSeparatesRivals) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  PlacementSnapshot snap = b.Build();
  PlacementConstraints c;
  c.Separate(1, 2);
  snap.set_constraints(c);

  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.InstanceCount(0), 1);
  EXPECT_EQ(result.placement.InstanceCount(1), 1);
  for (int n = 0; n < 2; ++n) {
    EXPECT_LE(result.placement.at(0, n) + result.placement.at(1, n), 1)
        << "rivals share node " << n;
  }
}

TEST(ConstrainedControllerTest, QuickDispatchRespectsPinning) {
  const ClusterSpec cluster = TinyCluster(3);
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  PlacementConstraints c;
  c.PinTo(5, {2});
  cfg.constraints = c;
  ApcController controller(&cluster, &queue, cfg);
  controller.Attach(sim, 0.0);
  sim.RunUntil(0.5);  // a cycle has run; quick dispatch path is now live

  JobProfile p = JobProfile::SingleStage(1'000.0, 500.0, 500.0);
  queue.Submit(
      std::make_unique<Job>(5, "pinned", p, JobGoal::FromFactor(0.5, 5.0, 2.0)));
  controller.OnJobSubmitted(sim);
  const Job* job = queue.Find(5);
  ASSERT_TRUE(job->placed());
  EXPECT_EQ(job->node(), 2);
}

// Quick dispatch under anti-collocation. On three TinyCluster nodes a job
// capped at 200 MHz finds every node that fits it equally good and takes
// the last one, node 2. Each test runs once unconstrained, where the job
// lands on its rival's node 2, and once with the rival separated.

JobProfile SmallJob() {
  return JobProfile::SingleStage(/*work=*/100'000.0, /*max_speed=*/200.0,
                                 /*memory=*/500.0);
}

void SubmitSmallJob(JobQueue& queue, AppId id, Seconds now) {
  queue.Submit(std::make_unique<Job>(
      id, "job", SmallJob(),
      JobGoal::FromFactor(now, 5.0, SmallJob().min_execution_time())));
}

ApcController::Config DispatchConfig(PlacementConstraints constraints) {
  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();
  cfg.constraints = std::move(constraints);
  return cfg;
}

TEST(ConstrainedControllerTest, QuickDispatchAvoidsAPlacedRival) {
  for (const bool separate : {false, true}) {
    const ClusterSpec cluster = TinyCluster(3);
    JobQueue queue;
    PlacementConstraints c;
    if (separate) c.Separate(1, 2);
    ApcController controller(&cluster, &queue, DispatchConfig(c));
    SubmitSmallJob(queue, 1, 0.0);
    ASSERT_EQ(controller.QuickDispatchAt(0.0), 1);
    ASSERT_EQ(queue.Find(1)->node(), 2);
    SubmitSmallJob(queue, 2, 1.0);
    ASSERT_EQ(controller.QuickDispatchAt(1.0), 1);
    EXPECT_EQ(queue.Find(2)->node(), separate ? 1 : 2)
        << "separate=" << separate;
  }
}

TEST(ConstrainedControllerTest, QuickDispatchAvoidsARivalPlacedInTheSameCall) {
  for (const bool separate : {false, true}) {
    const ClusterSpec cluster = TinyCluster(3);
    JobQueue queue;
    PlacementConstraints c;
    if (separate) c.Separate(1, 2);
    ApcController controller(&cluster, &queue, DispatchConfig(c));
    SubmitSmallJob(queue, 1, 0.0);
    SubmitSmallJob(queue, 2, 0.0);
    // Equal RP keeps submission order: job 1 is placed first.
    ASSERT_EQ(controller.QuickDispatchAt(0.0), 2);
    EXPECT_EQ(queue.Find(1)->node(), 2);
    EXPECT_EQ(queue.Find(2)->node(), separate ? 1 : 2)
        << "separate=" << separate;
  }
}

TEST(ConstrainedControllerTest, QuickDispatchAvoidsASeparatedTxInstance) {
  constexpr AppId kTx = 100;
  for (const bool separate : {false, true}) {
    const ClusterSpec cluster = TinyCluster(3);
    JobQueue queue;
    PlacementConstraints c;
    c.PinTo(kTx, {2});
    if (separate) c.Separate(1, kTx);
    ApcController controller(&cluster, &queue, DispatchConfig(c));
    TransactionalAppSpec tx;
    tx.id = kTx;
    tx.name = "tx";
    tx.memory_per_instance = 300.0;
    tx.response_time_goal = 1.0;
    tx.demand_per_request = 1.0;
    tx.min_response_time = 0.1;
    tx.saturation_allocation = 300.0;  // leaves node 2 over 200 MHz free
    tx.max_instances = 1;
    controller.AddTransactionalApp(tx, std::make_shared<ConstantRate>(100.0));
    controller.RunCycleAt(0.0);
    ASSERT_EQ(controller.tx_instances(0), std::vector<NodeId>{2});
    SubmitSmallJob(queue, 1, 0.5);
    ASSERT_EQ(controller.QuickDispatchAt(0.5), 1);
    EXPECT_EQ(queue.Find(1)->node(), separate ? 1 : 2)
        << "separate=" << separate;
  }
}

}  // namespace
}  // namespace mwp
