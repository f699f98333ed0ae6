#include "core/sharded_optimizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/apc_controller.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

TransactionalAppSpec TxSpec(AppId id) {
  TransactionalAppSpec spec;
  spec.id = id;
  spec.name = "tx-" + std::to_string(id);
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 4'000.0;
  return spec;
}

/// Random small snapshot in the §4.3 shape: a few nodes, a mix of running
/// and queued jobs, sometimes a transactional app. Running jobs are dealt
/// round-robin, at most two per node, so the incumbent is always feasible
/// (two 800 MB instances plus a 300 MB tx instance fit a 2,000 MB node).
void FillRandom(SnapshotBuilder& b, Rng& rng, int nodes) {
  const int jobs = static_cast<int>(rng.UniformInt(1, 7));
  int running_count = 0;
  for (int j = 0; j < jobs; ++j) {
    const bool running =
        rng.Uniform01() < 0.5 && running_count < 2 * nodes;
    const NodeId node =
        running ? static_cast<NodeId>(running_count++ % nodes) : kInvalidNode;
    b.AddJob(j + 1, rng.Uniform(1'000.0, 30'000.0), rng.Uniform(200.0, 900.0),
             rng.Uniform(300.0, 800.0), 0.0, rng.Uniform(1.2, 5.0),
             running ? JobStatus::kRunning : JobStatus::kNotStarted, node);
  }
  if (rng.Uniform01() < 0.5) {
    b.AddTx(TxSpec(100), rng.Uniform(100.0, 800.0),
            rng.Uniform01() < 0.5 ? std::vector<NodeId>{0}
                                  : std::vector<NodeId>{});
  }
}

TEST(ShardedOptimizerTest, OneCellBitExactWithMonolithic) {
  // Property: with every node in a single cell the sharded solve IS the
  // monolithic solve — identical placement matrix and identical sorted
  // utility vector, bit for bit, over randomized snapshots.
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const int nodes = static_cast<int>(rng.UniformInt(1, 4));
    SnapshotBuilder b(TinyCluster(nodes));
    FillRandom(b, rng, nodes);
    const PlacementSnapshot snap = b.Build();

    const auto mono = PlacementOptimizer(&snap).Optimize();
    ShardedPlacementOptimizer::Options options;
    options.cell_size = 64;  // >= nodes: one cell
    const auto sharded = ShardedPlacementOptimizer(&snap, options).Optimize();

    ASSERT_EQ(sharded.num_cells, 1) << "trial " << trial;
    EXPECT_EQ(sharded.cross_cell_transfers, 0) << "trial " << trial;
    EXPECT_EQ(sharded.global.placement, mono.placement) << "trial " << trial;
    EXPECT_EQ(sharded.global.evaluation.score,
              mono.evaluation.score)
        << "trial " << trial;
    EXPECT_EQ(sharded.global.incumbent_utilities, mono.incumbent_utilities)
        << "trial " << trial;
    EXPECT_EQ(sharded.global.used_shortcut, mono.used_shortcut)
        << "trial " << trial;
  }
}

TEST(ShardedOptimizerTest, SolvePlacementPicksEngineByCellSize) {
  Rng rng(77);
  SnapshotBuilder b(TinyCluster(4));
  FillRandom(b, rng, 4);
  const PlacementSnapshot snap = b.Build();
  ShardedPlacementOptimizer::Options options;
  options.cell_size = 0;
  options.cell_threads = 1;
  options.cell.search_threads = 1;

  // cell_size 0: the monolithic solve, reported with no cells.
  const ShardedPlacementOptimizer::Result mono = SolvePlacement(snap, options);
  const PlacementOptimizer::Result want =
      PlacementOptimizer(&snap, options.cell).Optimize();
  EXPECT_EQ(mono.num_cells, 0);
  EXPECT_TRUE(mono.cell_solve_seconds.empty());
  EXPECT_EQ(mono.global.placement, want.placement);
  EXPECT_EQ(mono.global.evaluations, want.evaluations);

  // cell_size > 0: the sharded solve.
  options.cell_size = 2;
  const ShardedPlacementOptimizer::Result sharded =
      SolvePlacement(snap, options);
  const ShardedPlacementOptimizer::Result want_sharded =
      ShardedPlacementOptimizer(&snap, options).Optimize();
  EXPECT_EQ(sharded.num_cells, 2);
  EXPECT_EQ(sharded.global.placement, want_sharded.global.placement);
  EXPECT_EQ(sharded.global.evaluations, want_sharded.global.evaluations);
}

TEST(ShardedOptimizerTest, DeterministicAcrossCellThreadCounts) {
  SnapshotBuilder b(TinyCluster(12));
  Rng rng(7);
  int running_count = 0;
  for (int j = 0; j < 20; ++j) {
    const bool running = j % 3 != 0;  // round-robin: at most 2 per node
    b.AddJob(j + 1, rng.Uniform(5'000.0, 40'000.0), rng.Uniform(300.0, 900.0),
             rng.Uniform(400.0, 800.0), 0.0, rng.Uniform(1.3, 4.0),
             running ? JobStatus::kRunning : JobStatus::kNotStarted,
             running ? static_cast<NodeId>(running_count++ % 12)
                     : kInvalidNode);
  }
  b.AddTx(TxSpec(100), 500.0, {0, 4, 8});
  const PlacementSnapshot snap = b.Build();

  ShardedPlacementOptimizer::Options options;
  options.cell_size = 4;  // 3 cells
  PlacementMatrix first(0, 0);
  std::vector<Utility> first_rp;
  for (const int threads : {1, 2, 8}) {
    options.cell_threads = threads;
    const ShardedPlacementOptimizer optimizer(&snap, options);
    const auto result = optimizer.Optimize();
    EXPECT_EQ(result.num_cells, 3);
    EXPECT_TRUE(snap.IsFeasible(result.global.placement))
        << "threads=" << threads;
    if (threads == 1) {
      first = result.global.placement;
      first_rp = result.global.evaluation.score;
    } else {
      EXPECT_EQ(result.global.placement, first) << "threads=" << threads;
      EXPECT_EQ(result.global.evaluation.score, first_rp)
          << "threads=" << threads;
    }
  }
}

TEST(ShardedOptimizerTest, PartitionSeedIsDeterministic) {
  SnapshotBuilder b(TinyCluster(8));
  for (int j = 0; j < 10; ++j) {
    b.AddJob(j + 1, 20'000.0, 600.0, 700.0, 0.0, 2.0 + 0.2 * j);
  }
  const PlacementSnapshot snap = b.Build();
  ShardedPlacementOptimizer::Options options;
  options.cell_size = 3;
  options.partition_seed = 99;
  const auto a = ShardedPlacementOptimizer(&snap, options).Optimize();
  const auto b2 = ShardedPlacementOptimizer(&snap, options).Optimize();
  EXPECT_EQ(a.global.placement, b2.global.placement);
  EXPECT_EQ(a.global.evaluation.score,
            b2.global.evaluation.score);
  EXPECT_TRUE(snap.IsFeasible(a.global.placement));
}

TEST(ShardedOptimizerTest, CrossCellChurnIsBounded) {
  // All load lands in cell 0 (nodes 0-1); cell 1 (nodes 2-3) is idle. The
  // rebalancer may move jobs over, but never more than the bound.
  SnapshotBuilder b(TinyCluster(4));
  for (int j = 0; j < 4; ++j) {
    b.AddJob(j + 1, 50'000.0, 1'000.0, 900.0, 0.0, 1.5,
             JobStatus::kRunning, static_cast<NodeId>(j / 2));
  }
  const PlacementSnapshot snap = b.Build();

  ShardedPlacementOptimizer::Options options;
  options.cell_size = 2;
  options.max_cross_cell_moves = 2;
  const auto bounded = ShardedPlacementOptimizer(&snap, options).Optimize();
  EXPECT_EQ(bounded.num_cells, 2);
  EXPECT_LE(bounded.cross_cell_transfers, 2);
  EXPECT_LE(bounded.cross_cell_migrations, bounded.cross_cell_transfers);
  EXPECT_GE(bounded.cross_cell_transfers, 1)
      << "an idle cell next to an overloaded one must attract work";
  EXPECT_TRUE(snap.IsFeasible(bounded.global.placement));

  options.max_cross_cell_moves = 0;  // rebalance disabled
  const auto frozen = ShardedPlacementOptimizer(&snap, options).Optimize();
  EXPECT_EQ(frozen.cross_cell_transfers, 0);
  EXPECT_EQ(frozen.cross_cell_migrations, 0);
  // Without transfers every job stays in its home cell: all four started on
  // nodes 0-1, so none may land on cell 1's nodes 2-3.
  for (int j = 0; j < 4; ++j) {
    for (int n = 0; n < 4; ++n) {
      if (frozen.global.placement.at(j, n) > 0) {
        EXPECT_LT(n, 2) << "job " << j << " left its cell";
      }
    }
  }
  EXPECT_TRUE(snap.IsFeasible(frozen.global.placement));
}

TEST(ShardedOptimizerTest, NeverWorseThanPerCellUnionAndFeasible) {
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    SnapshotBuilder b(TinyCluster(6));
    FillRandom(b, rng, 6);
    const PlacementSnapshot snap = b.Build();
    ShardedPlacementOptimizer::Options options;
    options.cell_size = 2;
    options.partition_seed = static_cast<std::uint64_t>(trial);
    const auto result = ShardedPlacementOptimizer(&snap, options).Optimize();
    EXPECT_TRUE(snap.IsFeasible(result.global.placement)) << "trial " << trial;
    EXPECT_EQ(result.num_cells, 3) << "trial " << trial;
  }
}

TEST(ShardedOptimizerTest, ControllerShardedSmoke) {
  // The controller path end to end at a scale no monolithic test runs: 100
  // nodes, sharded into 25-node cells, two control cycles. Checks the cycle
  // stats carry the sharding observability fields.
  const ClusterSpec cluster =
      ClusterSpec::Uniform(100, NodeSpec{1, 1'000.0, 2'000.0});
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 600.0;
  cfg.costs = VmCostModel::Free();
  cfg.shard_cell_size = 25;
  ApcController controller(&cluster, &queue, cfg);

  for (int j = 0; j < 50; ++j) {
    JobProfile p = JobProfile::SingleStage(600'000.0, 800.0, 700.0);
    queue.Submit(std::make_unique<Job>(
        j + 1, "job-" + std::to_string(j), p,
        JobGoal::FromFactor(0.0, 2.5, p.min_execution_time())));
  }
  controller.Attach(sim, 0.0);
  sim.RunUntil(1'200.0);  // cycles at t=0 and t=600

  ASSERT_GE(controller.cycles().size(), 2u);
  int placed = 0;
  for (const CycleStats& stats : controller.cycles()) {
    EXPECT_EQ(stats.num_cells, 4);
    EXPECT_EQ(stats.cell_solver_seconds.size(), 4u);
    placed += stats.starts;
  }
  EXPECT_GT(placed, 0) << "the sharded controller must start jobs";
}

}  // namespace
}  // namespace mwp
