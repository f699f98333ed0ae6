#include "core/placement_optimizer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

TEST(PlacementOptimizerTest, PlacesQueuedJobOnEmptyNode) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.InstanceCount(0), 1);
  EXPECT_FALSE(result.used_shortcut);
}

TEST(PlacementOptimizerTest, ShortcutWhenNothingWanted) {
  // One running job, nothing queued — the paper's fast path.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  EXPECT_TRUE(result.used_shortcut);
  EXPECT_EQ(result.evaluations, 1);
  EXPECT_EQ(result.placement, snap.current_placement());
}

TEST(PlacementOptimizerTest, Scenario1KeepsIncumbent) {
  // §4.3 S1 cycle 2: placing J2 does not beat the incumbent — "P2 is
  // selected, since it does not require any placement changes".
  SnapshotBuilder b(TinyCluster(1));
  b.now = 1.0;
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0,
           /*done=*/1'000.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.InstanceCount(1), 0) << "J2 must stay queued";
  EXPECT_NEAR(result.evaluation.distribution.totals[0], 1'000.0, 5.0);
}

TEST(PlacementOptimizerTest, Scenario2StartsSecondJob) {
  // §4.3 S2 cycle 2: with the tightened goal, P1 (both running at 500 MHz)
  // equalizes the relative distances and wins.
  SnapshotBuilder b(TinyCluster(1));
  b.now = 1.0;
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0,
           /*done=*/1'000.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 3.0);
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.InstanceCount(1), 1) << "J2 must be placed";
  EXPECT_NEAR(result.evaluation.distribution.totals[0], 500.0, 25.0);
  EXPECT_NEAR(result.evaluation.distribution.totals[1], 500.0, 25.0);
}

TEST(PlacementOptimizerTest, FillsMultipleNodes) {
  // Per-job speed caps (500 of the node's 1,000 MHz) make each extra
  // placement raise the batch aggregate, as in the paper's experiments.
  SnapshotBuilder b(TinyCluster(3));
  for (int j = 0; j < 6; ++j) {
    b.AddJob(j + 1, 2'000.0, 500.0, 750.0, 0.0, 5.0);
  }
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  // Two 750 MB jobs fit per 2,000 MB node: all six run.
  int placed = 0;
  for (int e = 0; e < 6; ++e) placed += result.placement.InstanceCount(e);
  EXPECT_EQ(placed, 6);
  for (int n = 0; n < 3; ++n) {
    EXPECT_LE(result.placement.InstancesOnNode(n), 2);
  }
}

TEST(PlacementOptimizerTest, MemoryConstrainedQueueing) {
  SnapshotBuilder b(TinyCluster(1));
  for (int j = 0; j < 4; ++j) {
    b.AddJob(j + 1, 2'000.0, 500.0, 750.0, 0.0, 5.0);
  }
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  int placed = 0;
  for (int e = 0; e < 4; ++e) placed += result.placement.InstanceCount(e);
  EXPECT_EQ(placed, 2) << "only two 750 MB VMs fit in 2,000 MB";
  EXPECT_TRUE(snap.IsFeasible(result.placement));
}

TEST(PlacementOptimizerTest, LowestRpFirstAdmission) {
  // Two queued jobs, one slot: the job with the tighter goal (lower max
  // achievable RP) must win it.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 1'500.0, 0.0, 8.0);  // relaxed goal
  b.AddJob(2, 4'000.0, 1'000.0, 1'500.0, 0.0, 1.5);  // tight goal
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.InstanceCount(1), 1) << "tight-goal job runs";
  EXPECT_EQ(result.placement.InstanceCount(0), 0);
}

TEST(PlacementOptimizerTest, SuspendsRunningJobForUrgentArrival) {
  // A relaxed running job occupies the only slot; a newly submitted tight
  // job (goal factor 1.05) cannot wait for it.
  SnapshotBuilder b(TinyCluster(1));
  b.now = 0.0;
  b.AddJob(1, 400'000.0, 1'000.0, 1'500.0, 0.0, 20.0, JobStatus::kRunning, 0,
           /*done=*/1'000.0);
  b.AddJob(2, 40'000.0, 1'000.0, 1'500.0, 0.0, 1.05);
  b.cycle = 10.0;
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.InstanceCount(1), 1) << "urgent job placed";
  EXPECT_EQ(result.placement.InstanceCount(0), 0) << "relaxed job suspended";
}

TEST(PlacementOptimizerTest, TxAppGetsInstancesWhenLoaded) {
  SnapshotBuilder b(TinyCluster(2));
  TransactionalAppSpec spec;
  spec.id = 5;
  spec.name = "tx";
  spec.memory_per_instance = 400.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 6.0;  // steep: one node leaves u ≈ 0.84 < 0.89
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 1'500.0;
  b.AddTx(spec, /*rate=*/150.0);  // no instances yet; stability at 900 MHz
  const PlacementSnapshot snap = b.Build();
  PlacementOptimizer opt(&snap);
  const auto result = opt.Optimize();
  // Saturation 1,500 MHz > one node's 1,000: expands to both nodes.
  EXPECT_EQ(result.placement.InstanceCount(0), 2);
  EXPECT_NEAR(result.evaluation.tx_allocation, 1'500.0, 10.0);
}

TEST(PlacementOptimizerTest, DeterministicAcrossRuns) {
  SnapshotBuilder b(TinyCluster(3));
  for (int j = 0; j < 5; ++j) {
    b.AddJob(j + 1, 2'000.0 * (j + 1), 500.0, 700.0, 0.0, 1.5 + 0.5 * j);
  }
  const PlacementSnapshot snap = b.Build();
  const auto r1 = PlacementOptimizer(&snap).Optimize();
  const auto r2 = PlacementOptimizer(&snap).Optimize();
  EXPECT_EQ(r1.placement, r2.placement);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
}

TEST(PlacementOptimizerTest, NeverWorseThanIncumbent) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    SnapshotBuilder b(TinyCluster(2));
    const int jobs = static_cast<int>(rng.UniformInt(1, 6));
    for (int j = 0; j < jobs; ++j) {
      const bool running = rng.Uniform01() < 0.5;
      b.AddJob(j + 1, rng.Uniform(1'000.0, 20'000.0),
               rng.Uniform(200.0, 900.0), rng.Uniform(300.0, 900.0), 0.0,
               rng.Uniform(1.2, 5.0),
               running ? JobStatus::kRunning : JobStatus::kNotStarted,
               running ? static_cast<NodeId>(rng.UniformInt(0, 1))
                       : kInvalidNode);
    }
    const PlacementSnapshot snap = b.Build();
    PlacementEvaluator evaluator(&snap);
    const auto incumbent = evaluator.Evaluate(snap.current_placement());
    const auto result = PlacementOptimizer(&snap).Optimize();
    EXPECT_GE(evaluator.Compare(result.evaluation, incumbent), 0)
        << "trial " << trial;
  }
}

TEST(PlacementOptimizerTest, TxBootstrapCrossesStabilityValley) {
  // A single new instance of this app sits below its stability boundary
  // (utility floor); only the whole-cluster expansion candidate can place
  // it. Regression test for the Experiment Three bootstrap.
  SnapshotBuilder b(TinyCluster(3));
  TransactionalAppSpec spec;
  spec.id = 9;
  spec.name = "tx";
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 2.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 2'500.0;
  b.AddTx(spec, /*rate=*/900.0);  // stability at 1,800 MHz > one node
  const PlacementSnapshot snap = b.Build();
  const auto result = PlacementOptimizer(&snap).Optimize();
  EXPECT_GE(result.placement.InstanceCount(0), 2)
      << "the app needs at least two nodes to clear its stability boundary";
  EXPECT_GT(result.evaluation.entity_utilities[0], 0.0);
}

TEST(PlacementOptimizerTest, FillsWholeBatchAcrossNodes) {
  // Eight queued jobs, two memory slots per node across four nodes: a
  // single cycle must start all of them (between the fill-all bootstrap
  // candidate and the per-node sweep).
  SnapshotBuilder b(TinyCluster(4));
  for (int j = 0; j < 8; ++j) {
    b.AddJob(j + 1, 60'000.0, 500.0, 900.0, 0.0, 2.0);
  }
  const PlacementSnapshot snap = b.Build();
  const auto result = PlacementOptimizer(&snap).Optimize();
  int placed = 0;
  for (int e = 0; e < 8; ++e) placed += result.placement.InstanceCount(e);
  EXPECT_EQ(placed, 8);
  for (int n = 0; n < 4; ++n) {
    EXPECT_LE(result.placement.InstancesOnNode(n), 2);
  }
}

TEST(PlacementOptimizerTest, ResultAlwaysFeasible) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    SnapshotBuilder b(TinyCluster(3));
    const int jobs = static_cast<int>(rng.UniformInt(1, 8));
    for (int j = 0; j < jobs; ++j) {
      b.AddJob(j + 1, rng.Uniform(1'000.0, 50'000.0),
               rng.Uniform(200.0, 1'000.0), rng.Uniform(300.0, 1'200.0), 0.0,
               rng.Uniform(1.1, 6.0));
    }
    const PlacementSnapshot snap = b.Build();
    PlacementOptimizer opt(&snap);
    const auto result = opt.Optimize();
    EXPECT_TRUE(snap.IsFeasible(result.placement)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mwp
