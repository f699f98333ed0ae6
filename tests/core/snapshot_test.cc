#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

TransactionalAppSpec TxSpec(AppId id, Megabytes mem = 500.0) {
  TransactionalAppSpec spec;
  spec.id = id;
  spec.name = "tx";
  spec.memory_per_instance = mem;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 10.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 900.0;
  return spec;
}

TEST(SnapshotTest, EntityIndexing) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);
  b.AddTx(TxSpec(10), 50.0);
  const PlacementSnapshot snap = b.Build();

  EXPECT_EQ(snap.num_jobs(), 2);
  EXPECT_EQ(snap.num_tx(), 1);
  EXPECT_EQ(snap.num_entities(), 3);
  EXPECT_TRUE(snap.IsJobEntity(0));
  EXPECT_TRUE(snap.IsJobEntity(1));
  EXPECT_FALSE(snap.IsJobEntity(2));
  EXPECT_EQ(snap.EntityOfJob(1), 1);
  EXPECT_EQ(snap.EntityOfTx(0), 2);
  EXPECT_EQ(snap.JobOfEntity(1), 1);
  EXPECT_EQ(snap.TxOfEntity(2), 0);
  EXPECT_THROW(snap.JobOfEntity(2), std::logic_error);
  EXPECT_THROW(snap.TxOfEntity(0), std::logic_error);
}

TEST(SnapshotTest, CurrentPlacementFromViews) {
  SnapshotBuilder b(TinyCluster(3));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 1);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);  // queued
  b.AddTx(TxSpec(10), 50.0, {0, 2});
  const PlacementSnapshot snap = b.Build();

  const PlacementMatrix& p = snap.current_placement();
  EXPECT_EQ(p.at(0, 1), 1);
  EXPECT_EQ(p.InstanceCount(0), 1);
  EXPECT_EQ(p.InstanceCount(1), 0);
  EXPECT_EQ(p.at(2, 0), 1);
  EXPECT_EQ(p.at(2, 2), 1);
}

TEST(SnapshotTest, EntityMemory) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddTx(TxSpec(10, 333.0), 50.0);
  const PlacementSnapshot snap = b.Build();
  EXPECT_DOUBLE_EQ(snap.EntityMemory(0), 750.0);
  EXPECT_DOUBLE_EQ(snap.EntityMemory(1), 333.0);
}

TEST(SnapshotTest, FreeMemoryAccounting) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(2, 1);
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 2'000.0);
  p.at(0, 0) = 1;
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 1'250.0);
  p.at(1, 0) = 1;
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 500.0);
}

TEST(SnapshotTest, FeasibilityMemoryLimit) {
  // The §4.3 node hosts at most two 750 MB jobs.
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, 4.0);
  b.AddJob(3, 4'000.0, 500.0, 750.0, 2.0, 1.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(3, 1);
  p.at(0, 0) = 1;
  p.at(1, 0) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
  p.at(2, 0) = 1;  // 2,250 MB > 2,000 MB
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, FeasibilityJobSingleInstance) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  PlacementMatrix p(1, 2);
  p.at(0, 0) = 1;
  p.at(0, 1) = 1;  // two instances of one job
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, FeasibilityTxInstanceRules) {
  SnapshotBuilder b(TinyCluster(3));
  auto spec = TxSpec(10);
  spec.max_instances = 2;
  b.AddTx(spec, 50.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(1, 3);
  p.at(0, 0) = 2;  // two instances on one node
  EXPECT_FALSE(snap.IsFeasible(p));
  p.at(0, 0) = 1;
  p.at(0, 1) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
  p.at(0, 2) = 1;  // exceeds max_instances
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, CaptureFromLiveObjects) {
  const ClusterSpec cluster = TinyCluster(2);
  JobQueue queue;
  JobProfile profile = JobProfile::SingleStage(4'000.0, 1'000.0, 750.0);
  Job& running = queue.Submit(std::make_unique<Job>(
      1, "r", profile, JobGoal::FromFactor(0.0, 5.0, 4.0)));
  queue.Submit(std::make_unique<Job>(2, "q", profile,
                                     JobGoal::FromFactor(1.0, 5.0, 4.0)));
  Job& suspended = queue.Submit(std::make_unique<Job>(
      3, "s", profile, JobGoal::FromFactor(0.0, 5.0, 4.0)));
  Job& done = queue.Submit(std::make_unique<Job>(
      4, "d", profile, JobGoal::FromFactor(0.0, 5.0, 4.0)));

  running.Place(1, 0.0, 0.0);
  running.SetAllocation(500.0);
  running.AdvanceTo(0.0, 2.0);
  suspended.Place(0, 0.0, 0.0);
  suspended.SetAllocation(100.0);
  suspended.Suspend(1.0);
  done.Place(0, 0.0, 0.0);
  done.SetAllocation(1'000.0);
  done.AdvanceTo(0.0, 10.0);
  ASSERT_TRUE(done.completed());

  const VmCostModel costs = VmCostModel::PaperMeasured();
  const PlacementSnapshot snap =
      PlacementSnapshot::Capture(cluster, 2.0, 1.0, queue, costs);

  // Completed jobs are excluded; order follows submission.
  ASSERT_EQ(snap.num_jobs(), 3);
  EXPECT_EQ(snap.job(0).id, 1);
  EXPECT_EQ(snap.job(0).status, JobStatus::kRunning);
  EXPECT_EQ(snap.job(0).current_node, 1);
  EXPECT_DOUBLE_EQ(snap.job(0).work_done, 1'000.0);
  EXPECT_DOUBLE_EQ(snap.job(0).place_overhead, 0.0);

  EXPECT_EQ(snap.job(1).id, 2);
  EXPECT_DOUBLE_EQ(snap.job(1).place_overhead, costs.BootCost());

  EXPECT_EQ(snap.job(2).id, 3);
  EXPECT_EQ(snap.job(2).status, JobStatus::kSuspended);
  EXPECT_DOUBLE_EQ(snap.job(2).place_overhead, costs.ResumeCost(750.0));

  EXPECT_EQ(snap.current_placement().at(0, 1), 1);
  EXPECT_EQ(snap.current_placement().InstanceCount(2), 0);
}

TEST(SnapshotTest, CaptureWithTxInputs) {
  const ClusterSpec cluster = TinyCluster(2);
  JobQueue queue;
  TransactionalApp app{TxSpec(77)};
  const PlacementSnapshot snap = PlacementSnapshot::Capture(
      cluster, 0.0, 1.0, queue, VmCostModel::Free(),
      {{&app, 123.0, {0, 1}}});
  ASSERT_EQ(snap.num_tx(), 1);
  EXPECT_EQ(snap.tx(0).id, 77);
  EXPECT_DOUBLE_EQ(snap.tx(0).arrival_rate, 123.0);
  EXPECT_EQ(snap.current_placement().at(0, 0), 1);
  EXPECT_EQ(snap.current_placement().at(0, 1), 1);
}

TEST(SnapshotTest, RejectsNonFiniteOrNegativeTxRates) {
  // A negative rate would read as quiesced and NaN would fail only inside
  // the solve; Capture, cell slices and replay all construct a snapshot.
  const ClusterSpec cluster = TinyCluster(1);
  JobQueue queue;
  TransactionalApp app{TxSpec(77)};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double rate : {std::numeric_limits<double>::quiet_NaN(), kInf,
                            -kInf, -1.0}) {
    try {
      PlacementSnapshot::Capture(cluster, 0.0, 1.0, queue,
                                 VmCostModel::Free(), {{&app, rate, {0}}});
      ADD_FAILURE() << "rate " << rate << " accepted";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("tx app 77 arrival rate"), std::string::npos)
          << what;
    }
  }
  const PlacementSnapshot quiesced = PlacementSnapshot::Capture(
      cluster, 0.0, 1.0, queue, VmCostModel::Free(), {{&app, 0.0, {0}}});
  EXPECT_DOUBLE_EQ(quiesced.tx(0).arrival_rate, 0.0);
}

TEST(SnapshotTest, CapturesNodeHealthAtConstruction) {
  SnapshotBuilder b(TinyCluster(3));
  b.cluster.SetNodeOffline(1);
  b.cluster.SetNodeDegraded(2, 0.5);
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();

  EXPECT_TRUE(snap.NodeOnline(0));
  EXPECT_FALSE(snap.NodeOnline(1));
  EXPECT_TRUE(snap.NodeOnline(2));
  EXPECT_DOUBLE_EQ(snap.NodeAvailableCpu(0), 1'000.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableCpu(1), 0.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableCpu(2), 500.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableMemory(1), 0.0);
  EXPECT_DOUBLE_EQ(snap.NodeAvailableMemory(2), 2'000.0);
  EXPECT_EQ(snap.NumOnlineNodes(), 2);

  // The view is frozen: later health changes do not leak in.
  b.cluster.SetNodeOnline(1);
  EXPECT_FALSE(snap.NodeOnline(1));
}

TEST(SnapshotTest, FeasibilityRejectsOfflineNode) {
  SnapshotBuilder b(TinyCluster(2));
  b.cluster.SetNodeOffline(1);
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();

  PlacementMatrix p(1, 2);
  p.at(0, 0) = 1;
  EXPECT_TRUE(snap.IsFeasible(p));
  p.at(0, 0) = 0;
  p.at(0, 1) = 1;
  EXPECT_FALSE(snap.IsFeasible(p));
}

TEST(SnapshotTest, FreeMemoryZeroOnOfflineNode) {
  SnapshotBuilder b(TinyCluster(2));
  b.cluster.SetNodeOffline(0);
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  const PlacementMatrix p(1, 2);
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 0), 0.0);
  EXPECT_DOUBLE_EQ(snap.FreeMemory(p, 1), 2'000.0);
}

/// IsFeasible's rules restated node by node, with the memory test through
/// FreeMemory's column walk.
bool ReferenceIsFeasible(const PlacementSnapshot& snap,
                         const PlacementMatrix& p) {
  for (int n = 0; n < snap.num_nodes(); ++n) {
    for (int e = 0; e < snap.num_entities(); ++e) {
      if (p.at(e, n) < 0) return false;
      if (p.at(e, n) > 0 && !snap.NodeOnline(n)) return false;
    }
    if (snap.NodeOnline(n) && snap.FreeMemory(p, n) < -kEpsilon) return false;
  }
  for (int j = 0; j < snap.num_jobs(); ++j) {
    if (p.InstanceCount(snap.EntityOfJob(j)) > 1) return false;
  }
  for (int w = 0; w < snap.num_tx(); ++w) {
    const int e = snap.EntityOfTx(w);
    for (int n = 0; n < snap.num_nodes(); ++n) {
      if (p.at(e, n) > 1) return false;
    }
    const int cap = snap.tx(w).max_instances;
    if (cap > 0 && p.InstanceCount(e) > cap) return false;
  }
  const PlacementConstraints& c = snap.constraints();
  for (int e = 0; e < snap.num_entities(); ++e) {
    for (int n = 0; n < snap.num_nodes(); ++n) {
      if (p.at(e, n) > 0 && !c.AllowsNode(snap.EntityAppId(e), n)) return false;
    }
  }
  for (int a = 0; a < snap.num_entities(); ++a) {
    for (int b = 0; b < snap.num_entities(); ++b) {
      if (c.AllowsCollocation(snap.EntityAppId(a), snap.EntityAppId(b))) {
        continue;
      }
      for (int n = 0; n < snap.num_nodes(); ++n) {
        if (p.at(a, n) > 0 && p.at(b, n) > 0) return false;
      }
    }
  }
  return true;
}

/// Four 2,000 MB nodes (node 3 offline); jobs 1-5 (job 2 pinned to nodes 0
/// and 1), tx 10 (kept apart from job 1) and tx 11 (at most 2 instances).
/// Job 3 fills node 2 exactly beside the base placement's two tx
/// instances; job 5 overfills it by 1e-6 MB.
struct FeasibilityFixture {
  SnapshotBuilder b{TinyCluster(4)};
  PlacementSnapshot snap;

  FeasibilityFixture() : snap(Build(b)) {
    PlacementConstraints c;
    c.PinTo(2, {0, 1});
    c.Separate(1, 10);
    snap.set_constraints(c);
  }

  static PlacementSnapshot Build(SnapshotBuilder& b) {
    b.cluster.SetNodeOffline(3);
    b.AddJob(1, 4'000.0, 1'000.0, 600.0, 0.0, 5.0);
    b.AddJob(2, 4'000.0, 1'000.0, 600.0, 0.0, 5.0);
    b.AddJob(3, 4'000.0, 1'000.0, 1'000.0, 0.0, 5.0);
    b.AddJob(4, 4'000.0, 1'000.0, 400.0, 0.0, 5.0);
    b.AddJob(5, 4'000.0, 1'000.0, 1'000.000001, 0.0, 5.0);
    b.AddTx(TxSpec(10), 50.0);
    TransactionalAppSpec capped = TxSpec(11);
    capped.max_instances = 2;
    b.AddTx(capped, 50.0);
    return b.Build();
  }

  /// Job 1 on node 0, job 2 on node 1, tx 10 on nodes 1-2, tx 11 on nodes
  /// 0 and 2: at most 1,100 MB per node.
  PlacementMatrix Base() const {
    PlacementMatrix p(snap.num_entities(), snap.num_nodes());
    p.at(0, 0) = 1;
    p.at(1, 1) = 1;
    p.at(5, 1) = 1;
    p.at(5, 2) = 1;
    p.at(6, 0) = 1;
    p.at(6, 2) = 1;
    return p;
  }
};

TEST(SnapshotTest, FeasibilityMatchesPerNodeReference) {
  const FeasibilityFixture f;
  const PlacementSnapshot& snap = f.snap;
  struct Case {
    const char* name;
    bool feasible;
    PlacementMatrix p;
  };
  std::vector<Case> cases;
  auto with = [&f](auto&& edit) {
    PlacementMatrix p = f.Base();
    edit(p);
    return p;
  };
  cases.push_back({"base", true, f.Base()});
  cases.push_back({"memory exactly full", true,
                   with([](PlacementMatrix& p) { p.at(2, 2) = 1; })});
  cases.push_back({"memory just over", false,
                   with([](PlacementMatrix& p) { p.at(4, 2) = 1; })});
  cases.push_back({"occupied offline node", false,
                   with([](PlacementMatrix& p) { p.at(3, 3) = 1; })});
  cases.push_back({"job on two nodes", false, with([](PlacementMatrix& p) {
                     p.at(3, 0) = 1;
                     p.at(3, 2) = 1;
                   })});
  cases.push_back({"tx twice on one node", false,
                   with([](PlacementMatrix& p) { p.at(5, 1) = 2; })});
  cases.push_back({"tx over max_instances", false,
                   with([](PlacementMatrix& p) { p.at(6, 1) = 1; })});
  cases.push_back({"pin", false, with([](PlacementMatrix& p) {
                     p.at(1, 1) = 0;
                     p.at(1, 2) = 1;
                   })});
  cases.push_back({"separation", false, with([](PlacementMatrix& p) {
                     p.at(0, 0) = 0;
                     p.at(0, 2) = 1;
                   })});
  cases.push_back({"negative count", false,
                   with([](PlacementMatrix& p) { p.at(3, 0) = -1; })});
  for (const Case& c : cases) {
    EXPECT_EQ(snap.IsFeasible(c.p), c.feasible) << c.name;
    EXPECT_EQ(ReferenceIsFeasible(snap, c.p), c.feasible) << c.name;
  }

  // Random matrices: mostly 0/1 cells at a random density, with a few 2s
  // and -1s.
  int feasible = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 4'000; ++seed) {
    Rng rng(seed);
    const double density = rng.Uniform(0.02, 0.3);
    PlacementMatrix p(snap.num_entities(), snap.num_nodes());
    for (int e = 0; e < snap.num_entities(); ++e) {
      for (int n = 0; n < snap.num_nodes(); ++n) {
        if (rng.Uniform01() >= density) continue;
        const double roll = rng.Uniform01();
        p.at(e, n) = roll < 0.9 ? 1 : (roll < 0.97 ? 2 : -1);
      }
    }
    const bool expected = ReferenceIsFeasible(snap, p);
    ASSERT_EQ(snap.IsFeasible(p), expected) << "seed " << seed << "\n"
                                             << p.ToString();
    ++(expected ? feasible : infeasible);
  }
  std::printf("%d feasible, %d infeasible random placements\n", feasible,
              infeasible);
  EXPECT_GT(feasible, 400);
  EXPECT_GT(infeasible, 400);
}

}  // namespace
}  // namespace mwp
