#include "core/load_distributor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <new>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/placement_optimizer.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::RepeatingCandidateSequence;
using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

TransactionalAppSpec TxSpec(AppId id, MHz saturation = 900.0,
                            Megabytes mem = 500.0) {
  TransactionalAppSpec spec;
  spec.id = id;
  spec.name = "tx";
  spec.memory_per_instance = mem;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = saturation;
  return spec;
}

/// Every output bit of a distribution.
std::vector<std::uint64_t> ResultBits(const DistributionResult& r) {
  const auto bits_of = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<std::uint64_t> bits;
  const LoadMatrix loads = r.Loads();
  for (int e = 0; e < loads.num_apps(); ++e) {
    for (int n = 0; n < loads.num_nodes(); ++n) {
      bits.push_back(bits_of(loads.at(e, n)));
    }
  }
  for (const MHz total : r.totals) bits.push_back(bits_of(total));
  for (const Utility u : r.utilities) bits.push_back(bits_of(u));
  for (const bool placed : r.placed) bits.push_back(placed ? 1 : 0);
  bits.push_back(bits_of(r.batch_level));
  return bits;
}

TEST(LoadDistributorTest, SingleJobGetsMaxSpeed) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  LoadDistributor dist(&snap);
  const auto result = dist.Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 1'000.0, 1.0);
  EXPECT_NEAR(result.utilities[0], 0.8, 0.01);  // completes at 4 of goal 20
}

TEST(LoadDistributorTest, SpeedCapLeavesCpuIdle) {
  // A 500 MHz-max job on a 1,000 MHz node cannot use the second half.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 2'000.0, 500.0, 750.0, 0.0, 4.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 500.0, 1.0);
}

TEST(LoadDistributorTest, EqualJobsShareEqually) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 500.0, 5.0);
  EXPECT_NEAR(result.totals[1], 500.0, 5.0);
  EXPECT_NEAR(result.utilities[0], result.utilities[1], 0.01);
}

TEST(LoadDistributorTest, MaxMinFavoursTheNeedy) {
  // Same node, same work, but job 2's goal is much tighter: equalizing
  // relative performance gives job 2 more CPU.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 2'000.0, 1'000.0, 750.0, 0.0, 8.0, JobStatus::kRunning, 0);
  b.AddJob(2, 2'000.0, 1'000.0, 750.0, 0.0, 2.5, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_GT(result.totals[1], result.totals[0]);
  EXPECT_NEAR(result.utilities[0], result.utilities[1], 0.02);
  EXPECT_NEAR(result.totals[0] + result.totals[1], 1'000.0, 5.0);
}

TEST(LoadDistributorTest, SaturatedJobYieldsSurplus) {
  // Job 1's goal is so tight that even at its 200 MHz cap it stays the
  // worst-off entity: it fixes at saturation and job 2 takes the surplus.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 400.0, 200.0, 750.0, 0.0, 1.05, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 3.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 200.0, 2.0);
  EXPECT_NEAR(result.totals[1], 800.0, 2.0);
  EXPECT_GT(result.utilities[1], result.utilities[0]);
}

TEST(LoadDistributorTest, JobsOnSeparateNodesIndependent) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 1);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 1'000.0, 1.0);
  EXPECT_NEAR(result.totals[1], 1'000.0, 1.0);
  EXPECT_DOUBLE_EQ(result.Loads().at(0, 0), result.totals[0]);
  EXPECT_DOUBLE_EQ(result.Loads().at(1, 1), result.totals[1]);
}

TEST(LoadDistributorTest, UnplacedJobGetsNothing) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);  // queued
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_FALSE(result.placed[1]);
  EXPECT_DOUBLE_EQ(result.totals[1], 0.0);
  EXPECT_DOUBLE_EQ(result.utilities[1], kUtilityFloor);
}

TEST(LoadDistributorTest, TxSharesNodeWithJob) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddTx(TxSpec(10, /*saturation=*/900.0), /*rate=*/400.0, {0});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  // Both positive, node capacity respected.
  EXPECT_GT(result.totals[0], 0.0);
  EXPECT_GT(result.totals[1], 0.0);
  EXPECT_LE(result.totals[0] + result.totals[1], 1'000.0 + 1e-6);
  // Relative performance approximately equalized.
  EXPECT_NEAR(result.utilities[0], result.utilities[1], 0.05);
}

TEST(LoadDistributorTest, TxSpansMultipleNodes) {
  SnapshotBuilder b(TinyCluster(3));
  b.AddTx(TxSpec(10, /*saturation=*/2'500.0), /*rate=*/1'500.0, {0, 1, 2});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  // Saturation 2,500 < 3,000 total: the app gets its saturation allocation.
  EXPECT_NEAR(result.totals[0], 2'500.0, 5.0);
  // Routed across the three instances within node capacity.
  for (int n = 0; n < 3; ++n) {
    EXPECT_LE(result.Loads().at(0, n), 1'000.0 + 1e-6);
  }
  EXPECT_NEAR(result.Loads().at(0, 0) + result.Loads().at(0, 1) +
                  result.Loads().at(0, 2),
              2'500.0, 5.0);
}

TEST(LoadDistributorTest, QuiescedTxIsSatisfiedWithZero) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddTx(TxSpec(10), /*rate=*/0.0, {0});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_DOUBLE_EQ(result.totals[0], 0.0);
  EXPECT_DOUBLE_EQ(result.utilities[0], 1.0);
}

TEST(LoadDistributorTest, MinSpeedPausesStarvedJob) {
  // Two jobs on one node; job 2 requires at least 800 MHz whenever it runs.
  // Fair sharing would give it ~500, below its minimum, so it is paused.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  auto& j2 =
      b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  j2.min_speed = 800.0;
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_DOUBLE_EQ(result.totals[1], 0.0);
  EXPECT_GT(result.totals[0], 0.0);
}

TEST(LoadDistributorTest, NodeCapacityNeverExceeded) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 40'000.0, 1'000.0, 750.0, 0.0, 1.1, JobStatus::kRunning, 0);
  b.AddJob(2, 40'000.0, 1'000.0, 750.0, 0.0, 1.1, JobStatus::kRunning, 0);
  b.AddJob(3, 40'000.0, 1'000.0, 750.0, 0.0, 1.1, JobStatus::kRunning, 1);
  b.AddTx(TxSpec(10, 1'800.0), 900.0, {0, 1});
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  for (int n = 0; n < 2; ++n) {
    EXPECT_LE(result.Loads().NodeLoad(n), 1'000.0 + 1e-5) << "node " << n;
  }
}

TEST(LoadDistributorTest, InfeasiblePlacementRejected) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 1'500.0, 0.0, 5.0);
  b.AddJob(2, 4'000.0, 1'000.0, 1'500.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  PlacementMatrix p(2, 1);
  p.at(0, 0) = 1;
  p.at(1, 0) = 1;  // 3,000 MB on a 2,000 MB node
  EXPECT_THROW(LoadDistributor(&snap).Distribute(p), std::logic_error);
}

TEST(LoadDistributorTest, HopelessJobStillGetsMaxUseful) {
  // Goal long past: the job is the worst-off entity, so max-min gives it
  // everything it can use.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 1.01, JobStatus::kRunning, 0,
           /*done=*/0.0);
  auto& v = b.jobs.back();
  v.goal.completion_goal = 0.5;  // unreachable: min time is 4 s
  v.goal.desired_start = 0.0;
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_NEAR(result.totals[0], 1'000.0, 1.0);
  EXPECT_LT(result.utilities[0], 0.0);
}

TEST(LoadDistributorTest, BatchLevelReported) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());
  EXPECT_FALSE(std::isnan(result.batch_level));
  EXPECT_GT(result.batch_level, 0.0);
}

TEST(LoadDistributorTest, QueuedJobsPullCpuFromTx) {
  // The Experiment Three mechanism in miniature: one placed job beside a
  // transactional app, with and without three queued jobs. The batch
  // workload bargains as one entity on behalf of its whole queue, so the
  // queued jobs squeeze the tx app below what it gets beside the placed job
  // alone, and the placed job carries the queue's share.
  auto build = [](bool with_queue) {
    SnapshotBuilder b(TinyCluster(1));
    b.AddJob(1, 2'000.0, 900.0, 400.0, 0.0, 8.0, JobStatus::kRunning, 0);
    if (with_queue) {
      for (int j = 2; j <= 4; ++j) {
        b.AddJob(j, 2'000.0, 900.0, 400.0, 0.0, 8.0);  // queued
      }
    }
    TransactionalAppSpec spec;
    spec.id = 50;
    spec.name = "tx";
    spec.memory_per_instance = 200.0;
    spec.response_time_goal = 1.0;
    spec.demand_per_request = 4.0;
    spec.min_response_time = 0.1;
    spec.saturation_allocation = 800.0;
    b.AddTx(spec, /*rate=*/100.0, {0});
    return b;
  };

  const SnapshotBuilder queue_builder = build(true);
  const SnapshotBuilder alone_builder = build(false);
  const PlacementSnapshot queue_snap = queue_builder.Build();
  const PlacementSnapshot alone_snap = alone_builder.Build();
  const auto queued =
      LoadDistributor(&queue_snap).Distribute(queue_snap.current_placement());
  const auto alone =
      LoadDistributor(&alone_snap).Distribute(alone_snap.current_placement());

  // Entities are the jobs, then the tx app.
  const MHz tx_queued = queued.totals[4];
  const MHz tx_alone = alone.totals[1];
  std::printf("placed job %.2f vs %.2f MHz, tx %.2f vs %.2f MHz (with vs "
              "without the queue)\n",
              queued.totals[0], alone.totals[0], tx_queued, tx_alone);
  EXPECT_LT(tx_queued, tx_alone)
      << "queued jobs must pull CPU away from the tx app";
  EXPECT_GT(queued.totals[0], alone.totals[0])
      << "the placed job carries the queue's share";
}

TEST(LoadDistributorTest, ScratchOfADestroyedDistributorIsNotReused) {
  // Two snapshots that differ only in the queued job's goal factor, so
  // their batch aggregate demand curves differ. The second distributor is
  // built where the first one lived: a scratch that recognized its owner by
  // address would hand it the first one's memo tables.
  const auto build = [](double factor) {
    SnapshotBuilder b(TinyCluster(2));
    b.now = 1.0;
    b.cycle = 1.0;
    b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0,
             /*done=*/1'000.0);
    b.AddJob(2, 2'000.0, 500.0, 750.0, 0.0, 4.0, JobStatus::kRunning, 1,
             /*done=*/500.0);
    b.AddJob(3, 3'000.0, 800.0, 750.0, 1.0, factor);
    return b;
  };
  const SnapshotBuilder first_builder = build(2.0);
  const SnapshotBuilder second_builder = build(3.0);
  const PlacementSnapshot first_snap = first_builder.Build();
  const PlacementSnapshot second_snap = second_builder.Build();
  const PlacementMatrix& p = second_snap.current_placement();

  alignas(LoadDistributor) unsigned char storage[sizeof(LoadDistributor)];
  DistributorScratch scratch;
  auto* first = new (storage) LoadDistributor(&first_snap);
  first->Distribute(first_snap.current_placement(), scratch);
  first->~LoadDistributor();
  auto* second = new (storage) LoadDistributor(&second_snap);
  const DistributionResult reused = second->Distribute(p, scratch);
  DistributorScratch fresh;
  const DistributionResult expected = second->Distribute(p, fresh);
  second->~LoadDistributor();

  std::printf("batch level %a, fresh scratch %a\n", reused.batch_level,
              expected.batch_level);
  EXPECT_EQ(ResultBits(reused), ResultBits(expected));
}

class LoadDistributorPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LoadDistributorPropertyTest, InvariantsHoldUnderRandomWorkloads) {
  const auto [num_nodes, num_jobs] = GetParam();
  Rng rng(static_cast<std::uint64_t>(num_nodes * 1'000 + num_jobs));
  SnapshotBuilder b(TinyCluster(num_nodes));
  for (int j = 0; j < num_jobs; ++j) {
    const MHz speed = rng.Uniform(100.0, 1'000.0);
    const Megacycles work = speed * rng.Uniform(2.0, 50.0);
    const auto node = static_cast<NodeId>(
        rng.UniformInt(0, num_nodes - 1));
    b.AddJob(j + 1, work, speed, 100.0, 0.0, rng.Uniform(1.1, 5.0),
             JobStatus::kRunning, node);
  }
  b.now = rng.Uniform(0.0, 10.0);
  const PlacementSnapshot snap = b.Build();
  const auto result = LoadDistributor(&snap).Distribute(snap.current_placement());

  // Invariant 1: node capacities respected.
  for (int n = 0; n < num_nodes; ++n) {
    EXPECT_LE(result.Loads().NodeLoad(n), 1'000.0 + 1e-5);
  }
  // Invariant 2: no job exceeds its max speed.
  for (int j = 0; j < num_jobs; ++j) {
    EXPECT_LE(result.totals[static_cast<std::size_t>(j)],
              snap.job(j).max_speed + 1e-5);
    // Invariant 3: totals match the routed loads.
    EXPECT_NEAR(result.Loads().AppAllocation(j),
                result.totals[static_cast<std::size_t>(j)], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, LoadDistributorPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 3, 6, 12)));

// ---------------------------------------------------------------------------
// Cross-commit pin of Distribute's output bits. Any rewrite of the flow
// solver that changes an augmenting path, its order or a single floating-
// point operation changes the fingerprint.

/// 1-30 heterogeneous nodes (some offline, some degraded); jobs running,
/// paused, suspended and queued; up to five transactional apps whose
/// instances share nodes with jobs and with each other. The current
/// placement is feasible.
SnapshotBuilder RandomDistributorSnapshot(Rng& rng) {
  const int nodes = static_cast<int>(rng.UniformInt(1, 30));
  std::vector<NodeSpec> specs;
  for (int n = 0; n < nodes; ++n) {
    // Whole-GHz speeds make a node's capacity a round number, the shape
    // that puts bottlenecked demands on a knife edge.
    specs.push_back(NodeSpec{static_cast<int>(rng.UniformInt(1, 4)),
                             1'000.0 * static_cast<double>(rng.UniformInt(1, 4)),
                             rng.Uniform(2'000.0, 16'000.0)});
  }
  SnapshotBuilder b{ClusterSpec(std::move(specs))};
  b.now = rng.Uniform(0.0, 2'000.0);
  b.cycle = rng.Uniform(60.0, 600.0);
  std::vector<Megabytes> free_mem;
  for (int n = 0; n < nodes; ++n) {
    const double roll = rng.Uniform01();
    if (roll < 0.1) {
      b.cluster.SetNodeOffline(n);
    } else if (roll < 0.25) {
      b.cluster.SetNodeDegraded(n, rng.Uniform(0.2, 0.9));
    }
    free_mem.push_back(b.cluster.available_memory(n));
  }
  auto pick_node = [&](Megabytes need) -> NodeId {
    const int start = static_cast<int>(rng.UniformInt(0, nodes - 1));
    for (int k = 0; k < nodes; ++k) {
      const int n = (start + k) % nodes;
      if (free_mem[static_cast<std::size_t>(n)] >= need) return n;
    }
    return kInvalidNode;
  };

  const int num_jobs = static_cast<int>(rng.UniformInt(0, 3 * nodes));
  for (int j = 0; j < num_jobs; ++j) {
    const MHz max_speed = rng.Uniform(200.0, 4'000.0);
    const Megacycles work = max_speed * rng.Uniform(100.0, 20'000.0);
    const Megabytes memory = rng.Uniform(200.0, 4'000.0);
    const Seconds submit = rng.Uniform(0.0, b.now);
    const double factor = rng.Uniform(1.1, 6.0);
    JobStatus status = JobStatus::kNotStarted;
    NodeId node = kInvalidNode;
    Megacycles done = 0.0;
    const double roll = rng.Uniform01();
    if (roll < 0.55) {
      node = pick_node(memory);
      if (node != kInvalidNode) {
        status = roll < 0.45 ? JobStatus::kRunning : JobStatus::kPaused;
        done = rng.Uniform(0.0, 0.9 * work);
        free_mem[static_cast<std::size_t>(node)] -= memory;
      }
    } else if (roll < 0.75) {
      status = JobStatus::kSuspended;
      done = rng.Uniform(0.0, 0.9 * work);
    }
    JobView& v = b.AddJob(j + 1, work, max_speed, memory, submit, factor,
                          status, node, done);
    if (node == kInvalidNode) {
      v.place_overhead = rng.Uniform(0.0, 60.0);
    } else if (rng.Uniform01() < 0.2) {
      v.overhead_until = b.now + rng.Uniform(0.0, 60.0);  // still booting
    }
    if (rng.Uniform01() < 0.2) v.min_speed = rng.Uniform(0.0, 0.5 * max_speed);
  }

  const int num_tx = static_cast<int>(rng.UniformInt(0, 5));
  for (int w = 0; w < num_tx; ++w) {
    TransactionalAppSpec spec;
    spec.id = 1'000 + w;
    spec.name = "tx";
    spec.memory_per_instance = rng.Uniform(200.0, 1'500.0);
    spec.response_time_goal = rng.Uniform(0.5, 2.0);
    spec.demand_per_request = rng.Uniform(5.0, 60.0);
    spec.min_response_time = 0.05;
    spec.saturation_allocation = rng.Uniform(400.0, 8'000.0);
    std::vector<NodeId> on;
    const int wanted = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 0; k < wanted; ++k) {
      const NodeId n = pick_node(spec.memory_per_instance);
      if (n == kInvalidNode ||
          std::find(on.begin(), on.end(), n) != on.end()) {
        continue;
      }
      on.push_back(n);
      free_mem[static_cast<std::size_t>(n)] -= spec.memory_per_instance;
    }
    std::sort(on.begin(), on.end());
    const double rate = rng.Uniform01() < 0.1 ? 0.0 : rng.Uniform(1.0, 150.0);
    b.AddTx(spec, rate, std::move(on));
  }
  return b;
}

/// Seeds outside 1-1000 that the corpus carries on purpose: each threw
/// "final fixed demands must be routable" before the best-effort branch
/// clamped already-fixed entities to their routed flow.
constexpr std::uint64_t kKnifeEdgeSeeds[] = {9119, 22480, 22948, 42989, 44522,
                                            46548};

TEST(LoadDistributorFingerprintTest, CorpusDistributesAsRecorded) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= 1'000; ++seed) seeds.push_back(seed);
  seeds.insert(seeds.end(), std::begin(kKnifeEdgeSeeds),
               std::end(kKnifeEdgeSeeds));

  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  auto mix_double = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomDistributorSnapshot(rng);
    const PlacementSnapshot snap = b.Build();
    const LoadDistributor distributor(&snap);
    DistributorScratch scratch;
    DistributionResult r;
    try {
      r = distributor.Distribute(snap.current_placement(), scratch);
    } catch (const std::logic_error& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what();
      continue;
    }
    const LoadMatrix loads = r.Loads();
    for (int n = 0; n < snap.num_nodes(); ++n) {
      EXPECT_LE(loads.NodeLoad(n), snap.NodeAvailableCpu(n) + 1e-6)
          << "seed " << seed << " node " << n;
    }
    for (int e = 0; e < snap.num_entities(); ++e) {
      for (int n = 0; n < snap.num_nodes(); ++n) mix_double(loads.at(e, n));
    }
    for (const MHz total : r.totals) mix_double(total);
    for (const Utility u : r.utilities) mix_double(u);
    for (const bool placed : r.placed) mix(placed ? 1 : 0);
    mix_double(r.batch_level);
    mix(scratch.stats().flow_probes);
  }
  std::printf("distribution fingerprint over %zu snapshots: 0x%016llx\n",
              seeds.size(), static_cast<unsigned long long>(h));
  EXPECT_EQ(h, 0x756c1b8951c65b34ULL);
}

TEST(LoadDistributorFingerprintTest, CorpusExercisesReroutingPaths) {
  // The max-flow takes direct source→entity→node→sink paths without a
  // search and runs a BFS only for paths that reroute earlier flow through
  // a reverse arc; where no node is shared it builds no network at all.
  // The fingerprint pins every path only if the corpus needs each.
  DistributorScratch::Stats total;
  for (std::uint64_t seed = 1; seed <= 1'000; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomDistributorSnapshot(rng);
    const PlacementSnapshot snap = b.Build();
    DistributorScratch scratch;
    LoadDistributor(&snap).Distribute(snap.current_placement(), scratch);
    const DistributorScratch::Stats& stats = scratch.stats();
    total.distribute_calls += stats.distribute_calls;
    total.flow_probes += stats.flow_probes;
    total.rerouting_paths += stats.rerouting_paths;
    total.unshared_calls += stats.unshared_calls;
  }
  const std::uint64_t shared = total.distribute_calls - total.unshared_calls;
  std::printf("%llu rerouting paths over %llu flow probes; calls without / "
              "with a shared node: %llu / %llu\n",
              static_cast<unsigned long long>(total.rerouting_paths),
              static_cast<unsigned long long>(total.flow_probes),
              static_cast<unsigned long long>(total.unshared_calls),
              static_cast<unsigned long long>(shared));
  EXPECT_GT(total.rerouting_paths, 0u);
  EXPECT_GT(total.unshared_calls, 0u);
  EXPECT_GT(shared, 0u);
}

/// The placements a search scores around the incumbent: the current
/// placement, then one placed job removed, one queued job added where it
/// fits, and one placed job moved to another node where it fits.
std::vector<PlacementMatrix> CandidateSequence(const PlacementSnapshot& snap,
                                               Rng& rng) {
  const PlacementMatrix& current = snap.current_placement();
  std::vector<PlacementMatrix> sequence{current};
  std::vector<int> placed;
  std::vector<int> queued;
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const bool unplaced =
        FirstNodeOf(current, snap.EntityOfJob(j)) == kInvalidNode;
    (unplaced ? queued : placed).push_back(j);
  }
  const auto pick = [&rng](const std::vector<int>& jobs) {
    return jobs[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(jobs.size()) - 1))];
  };
  // Adds `entity` to `p` on the first node, from a random start, other than
  // `skip` where the result is feasible.
  const auto place = [&](PlacementMatrix p, int entity, int skip) {
    const int nodes = snap.num_nodes();
    const int start = static_cast<int>(rng.UniformInt(0, nodes - 1));
    for (int k = 0; k < nodes; ++k) {
      const int n = (start + k) % nodes;
      if (n == skip) continue;
      p.at(entity, n) = 1;
      if (snap.IsFeasible(p)) {
        sequence.push_back(p);
        return;
      }
      p.at(entity, n) = 0;
    }
  };
  if (!placed.empty()) {
    PlacementMatrix p = current;
    const int entity = snap.EntityOfJob(pick(placed));
    p.at(entity, FirstNodeOf(p, entity)) = 0;
    sequence.push_back(p);
  }
  if (!queued.empty()) place(current, snap.EntityOfJob(pick(queued)), -1);
  if (!placed.empty()) {
    PlacementMatrix p = current;
    const int entity = snap.EntityOfJob(pick(placed));
    const int from = FirstNodeOf(p, entity);
    p.at(entity, from) = 0;
    place(std::move(p), entity, from);
  }
  return sequence;
}

TEST(LoadDistributorFingerprintTest, ReusedScratchMatchesFreshScratch) {
  // The optimizer keeps one scratch per lane across every candidate it
  // scores, so the memos (batch demand curve, per-node decompositions)
  // carry from placement to placement. Each call on the reused scratch
  // must match a fresh scratch bit for bit, probe count included.
  std::uint64_t decompositions = 0;
  std::uint64_t reuses = 0;
  int searches = 0;
  for (std::uint64_t seed = 1; seed <= 1'000; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomDistributorSnapshot(rng);
    const PlacementSnapshot snap = b.Build();
    const std::vector<PlacementMatrix> sequence = CandidateSequence(snap, rng);
    const LoadDistributor distributor(&snap);
    DistributorScratch reused;
    for (std::size_t k = 0; k < sequence.size(); ++k) {
      const std::uint64_t probes_before = reused.stats().flow_probes;
      const DistributionResult r = distributor.Distribute(sequence[k], reused);
      DistributorScratch fresh;
      const DistributionResult expected =
          distributor.Distribute(sequence[k], fresh);
      EXPECT_EQ(ResultBits(r), ResultBits(expected))
          << "seed " << seed << " candidate " << k;
      EXPECT_EQ(reused.stats().flow_probes - probes_before,
                fresh.stats().flow_probes)
          << "seed " << seed << " candidate " << k;
    }
    decompositions += reused.stats().decompositions;
    reuses += reused.stats().decomposition_reuses;
    if (seed % 20 != 0) continue;
    // The distribution a search commits came from its lane scratch, and for
    // a changed placement from the change-based Distribute: it must match a
    // fresh dense Distribute of the committed placement, loads included.
    PlacementOptimizer::Options search;
    search.search_threads = 1;
    const PlacementOptimizer::Result result =
        PlacementOptimizer(&snap, search).Optimize();
    DistributorScratch fresh;
    EXPECT_EQ(ResultBits(result.evaluation.distribution),
              ResultBits(distributor.Distribute(result.placement, fresh)))
        << "seed " << seed << " search";
    ++searches;
  }
  std::printf("%d searches committed\n", searches);
  std::printf("%llu of %llu node decompositions reused\n",
              static_cast<unsigned long long>(reuses),
              static_cast<unsigned long long>(decompositions));
  EXPECT_GT(reuses, 0u);
}

/// The counters a call on a reused scratch must share with the same call on
/// a fresh one: all but the memo hits.
std::vector<std::uint64_t> WorkCounters(const DistributorScratch::Stats& s) {
  return {s.distribute_calls, s.flow_probes, s.rerouting_paths,
          s.unshared_calls, s.decompositions};
}

TEST(LoadDistributorFingerprintTest, RepeatedInputsDistributeAsRecorded) {
  // One scratch per snapshot distributes candidates whose inputs repeat,
  // alternate, keep the batch node list with one edge cap changed, or move
  // a job between nodes of equal CPU. Every output bit and every per-call
  // counter, node-memo hits included, folds into a constant recorded before
  // the scratch kept its last water-fill; each call must also match a fresh
  // scratch.
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  std::size_t calls = 0;
  std::uint64_t fill_reuses = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomDistributorSnapshot(rng);
    const PlacementSnapshot snap = b.Build();
    const std::vector<PlacementMatrix> sequence =
        RepeatingCandidateSequence(snap, rng);
    const LoadDistributor distributor(&snap);
    DistributorScratch reused;
    for (std::size_t k = 0; k < sequence.size(); ++k) {
      const DistributorScratch::Stats before = reused.stats();
      const DistributionResult r = distributor.Distribute(sequence[k], reused);
      const DistributorScratch::Stats& after = reused.stats();
      DistributorScratch fresh;
      const DistributionResult expected =
          distributor.Distribute(sequence[k], fresh);
      const std::vector<std::uint64_t> bits = ResultBits(r);
      EXPECT_EQ(bits, ResultBits(expected)) << "seed " << seed << " call " << k;
      EXPECT_EQ(r.job_nodes, expected.job_nodes)
          << "seed " << seed << " call " << k;
      std::vector<std::uint64_t> counts = WorkCounters(after);
      const std::vector<std::uint64_t> counts_before = WorkCounters(before);
      for (std::size_t c = 0; c < counts.size(); ++c) {
        counts[c] -= counts_before[c];
      }
      EXPECT_EQ(counts, WorkCounters(fresh.stats()))
          << "seed " << seed << " call " << k;
      for (const std::uint64_t v : bits) mix(v);
      for (const int node : r.job_nodes) mix(static_cast<std::uint64_t>(node));
      for (const std::uint64_t v : counts) mix(v);
      mix(after.decomposition_reuses - before.decomposition_reuses);
      ++calls;
    }
    fill_reuses += reused.stats().fill_reuses;
  }
  std::printf("repeated-input fingerprint over %zu calls: 0x%016llx\n", calls,
              static_cast<unsigned long long>(h));
  std::printf("%llu fills replayed\n",
              static_cast<unsigned long long>(fill_reuses));
  EXPECT_EQ(h, 0x8ed24c023cd628a5ULL);
  EXPECT_GT(fill_reuses, 0u);
}

}  // namespace
}  // namespace mwp
