// Property tests for scoring candidates as changes to an indexed incumbent:
// IsFeasible's verdict computed from a change (IsFeasibleChange) equals the
// full IsFeasible, and the index, the change-based Distribute and the
// row-listed DiffPlacements give what their dense counterparts give. The
// snapshots, incumbents and one-change candidates are seeded and random;
// incumbents are sometimes infeasible (an over-full node, an instance on an
// offline node, a job on two nodes, a tx app over its cap), candidates can
// carry negative counts, and some snapshots have pins and separations.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/incumbent_index.h"
#include "core/load_distributor.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::AddRandomConstraints;
using testing_fixtures::SnapshotBuilder;

/// A random snapshot: 2-6 nodes (some offline), 1-8 jobs, 0-3 tx apps
/// with instance caps, and a random current placement that need not be
/// feasible.
SnapshotBuilder RandomWorld(Rng& rng) {
  const int nodes = static_cast<int>(rng.UniformInt(2, 6));
  SnapshotBuilder b(
      ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0}));
  for (int n = 0; n < nodes; ++n) {
    if (rng.Uniform01() < 0.15) b.cluster.SetNodeOffline(n);
  }
  b.now = rng.Uniform(0.0, 10.0);
  const int jobs = static_cast<int>(rng.UniformInt(1, 8));
  for (int j = 0; j < jobs; ++j) {
    const bool running = rng.Uniform01() < 0.5;
    const NodeId node =
        running ? static_cast<NodeId>(rng.UniformInt(0, nodes - 1))
                : kInvalidNode;
    b.AddJob(j + 1, rng.Uniform(500.0, 8'000.0), rng.Uniform(200.0, 1'000.0),
             rng.Uniform(200.0, 900.0), 0.0, rng.Uniform(1.5, 6.0),
             running ? JobStatus::kRunning : JobStatus::kNotStarted, node,
             running ? rng.Uniform(0.0, 400.0) : 0.0);
  }
  const int txs = static_cast<int>(rng.UniformInt(0, 3));
  for (int w = 0; w < txs; ++w) {
    TransactionalAppSpec spec;
    spec.id = 100 + w;
    spec.name = "tx";
    spec.memory_per_instance = rng.Uniform(300.0, 800.0);
    spec.response_time_goal = 1.0;
    spec.demand_per_request = 10.0;
    spec.min_response_time = 0.05;
    spec.saturation_allocation = 900.0;
    spec.max_instances = static_cast<int>(rng.UniformInt(0, 3));
    std::vector<NodeId> on;
    for (int n = 0; n < nodes; ++n) {
      if (rng.Uniform01() < 0.3) on.push_back(n);
    }
    b.AddTx(spec, rng.Uniform(1.0, 25.0), std::move(on));
  }
  return b;
}

/// A random incumbent: each entity placed greedily where it fits (jobs
/// once, tx apps up to their cap), then, in about a third of the cases, one
/// infeasibility planted: an over-full node, an instance on an offline
/// node, a job on two nodes or a tx app over its cap.
PlacementMatrix RandomIncumbent(Rng& rng, const PlacementSnapshot& snap) {
  PlacementMatrix p(snap.num_entities(), snap.num_nodes());
  for (int e = 0; e < snap.num_entities(); ++e) {
    if (rng.Uniform01() < 0.3) continue;
    const int cap = snap.IsJobEntity(e) ? 1
                    : snap.tx(snap.TxOfEntity(e)).max_instances > 0
                        ? snap.tx(snap.TxOfEntity(e)).max_instances
                        : snap.num_nodes();
    const int start = static_cast<int>(rng.UniformInt(0, snap.num_nodes() - 1));
    int placed = 0;
    for (int k = 0; k < snap.num_nodes() && placed < cap; ++k) {
      const int n = (start + k) % snap.num_nodes();
      if (!snap.NodeOnline(n)) continue;
      if (snap.EntityMemory(e) > snap.FreeMemory(p, n)) continue;
      p.at(e, n) = 1;
      ++placed;
      if (rng.Uniform01() < 0.5) break;
    }
  }
  const int node = static_cast<int>(rng.UniformInt(0, snap.num_nodes() - 1));
  const int entity =
      static_cast<int>(rng.UniformInt(0, snap.num_entities() - 1));
  switch (rng.UniformInt(0, 11)) {
    case 0:  // over-full node: every entity there
      for (int e = 0; e < snap.num_entities(); ++e) p.at(e, node) = 1;
      break;
    case 1:  // an instance on an offline node, if there is one
      for (int n = 0; n < snap.num_nodes(); ++n) {
        if (!snap.NodeOnline(n)) p.at(entity, n) = 1;
      }
      break;
    case 2:  // a job on two nodes
      if (snap.num_nodes() >= 2 && snap.num_jobs() > 0) {
        const int job = entity % snap.num_jobs();
        p.at(job, 0) = 1;
        p.at(job, 1) = 1;
      }
      break;
    case 3:  // a tx app over its cap, or twice on one node
      if (snap.num_tx() > 0) {
        const int tx = snap.EntityOfTx(entity % snap.num_tx());
        for (int n = 0; n < snap.num_nodes(); ++n) p.at(tx, n) = 1;
        p.at(tx, node) = 2;
      }
      break;
    default:
      break;
  }
  return p;
}

/// A one-change candidate of either kind: k residents peeled off a node
/// plus one wished instance added there, or one instance moved from a node
/// to another. The "wish" and the "donor" are arbitrary entities, so
/// candidates can double-place a job, exceed a cap or leave a negative
/// count (a donor moved from a node it is not on).
CandidateChange RandomChange(Rng& rng, const PlacementSnapshot& snap,
                             const PlacementMatrix& incumbent) {
  CandidateChange change;
  const int node = static_cast<int>(rng.UniformInt(0, snap.num_nodes() - 1));
  if (rng.Uniform01() < 0.6) {
    std::vector<int> residents;
    for (int e = 0; e < snap.num_entities(); ++e) {
      for (int k = 0; k < incumbent.at(e, node); ++k) residents.push_back(e);
    }
    const auto peel = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(residents.size())));
    for (std::size_t r = 0; r < peel; ++r) change.Add(residents[r], node, -1);
    const int wish =
        static_cast<int>(rng.UniformInt(0, snap.num_entities() - 1));
    change.Add(wish, node, +1);
  } else {
    const int donor =
        static_cast<int>(rng.UniformInt(0, snap.num_entities() - 1));
    int from = FirstNodeOf(incumbent, donor);
    if (from == kInvalidNode || rng.Uniform01() < 0.1) {
      from = static_cast<int>(rng.UniformInt(0, snap.num_nodes() - 1));
    }
    if (from == node) return RandomChange(rng, snap, incumbent);
    change.Add(donor, from, -1);
    change.Add(donor, node, +1);
  }
  change.Seal();
  return change;
}

TEST(IncumbentIndexTest, ChangeVerdictMatchesIsFeasible) {
  int feasible = 0;
  int infeasible = 0;
  int from_change = 0;  // base feasible and unconstrained
  int infeasible_bases = 0;
  int constrained = 0;
  int negative = 0;
  for (std::uint64_t seed = 1; seed <= 1'500; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomWorld(rng);
    PlacementSnapshot snap = b.Build();
    if (rng.Uniform01() < 0.25) {
      AddRandomConstraints(rng, snap);
      ++constrained;
    }
    PlacementMatrix incumbent = RandomIncumbent(rng, snap);
    const bool base_feasible = snap.IsFeasible(incumbent);
    if (!base_feasible) ++infeasible_bases;
    for (int c = 0; c < 30; ++c) {
      const CandidateChange change = RandomChange(rng, snap, incumbent);
      change.ApplyTo(incumbent);
      const bool want = snap.IsFeasible(incumbent);
      const bool got = snap.IsFeasibleChange(incumbent, base_feasible,
                                             change.rows, change.nodes);
      for (const CandidateChange::Cell& cell : change.cells) {
        if (incumbent.at(cell.entity, cell.node) < 0) {
          ++negative;
          break;
        }
      }
      ASSERT_EQ(got, want) << "seed " << seed << " candidate " << c << "\n"
                           << incumbent.ToString();
      change.RevertFrom(incumbent);
      ++(want ? feasible : infeasible);
      if (base_feasible && snap.constraints().empty()) ++from_change;
    }
  }
  std::printf(
      "verdicts: %d feasible, %d infeasible (%d from the change, %d with a "
      "negative count); %d infeasible incumbents, %d constrained snapshots\n",
      feasible, infeasible, from_change, negative, infeasible_bases,
      constrained);
  EXPECT_GT(feasible, 5'000);
  EXPECT_GT(infeasible, 5'000);
  EXPECT_GT(from_change, 10'000);
  EXPECT_GT(negative, 100);
  EXPECT_GT(infeasible_bases, 100);
}

/// Every output bit of a distribution, loads included.
std::vector<std::uint64_t> DistributionBits(const DistributionResult& r) {
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
  for (const int node : r.job_nodes) {
    bits.push_back(static_cast<std::uint64_t>(node));
  }
  bits.push_back(bits_of(r.batch_level));
  return bits;
}

TEST(IncumbentIndexTest, IndexedScoringMatchesDensePasses) {
  // A feasible incumbent reached from the current placement by committed
  // feasible changes, as the search reaches it: the index kept by Commit
  // equals a fresh one, and a feasible candidate's change-based Distribute
  // and row-listed diff equal the dense ones.
  int commits = 0;
  int distributed = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomWorld(rng);
    const PlacementSnapshot snap = b.Build();
    PlacementMatrix incumbent = RandomIncumbent(rng, snap);
    if (!snap.IsFeasible(incumbent)) continue;
    IncumbentIndex index(snap, incumbent);
    const LoadDistributor distributor(&snap);
    DistributorScratch dense_scratch;
    DistributorScratch change_scratch;
    std::vector<bool> suspend(static_cast<std::size_t>(snap.num_entities()));
    std::vector<bool> resume(static_cast<std::size_t>(snap.num_entities()));
    for (int e = 0; e < snap.num_entities(); ++e) {
      suspend[static_cast<std::size_t>(e)] = rng.Uniform01() < 0.5;
      resume[static_cast<std::size_t>(e)] = rng.Uniform01() < 0.5;
    }
    std::vector<int> rows;
    for (int c = 0; c < 40; ++c) {
      CandidateChange change = RandomChange(rng, snap, incumbent);
      change.ApplyTo(incumbent);
      change.feasible = snap.IsFeasibleChange(incumbent, index.feasible(),
                                              change.rows, change.nodes);
      if (change.feasible) {
        ++distributed;
        ASSERT_EQ(DistributionBits(
                      distributor.Distribute(incumbent, index, change,
                                             change_scratch)),
                  DistributionBits(
                      distributor.Distribute(incumbent, dense_scratch)))
            << "seed " << seed << " candidate " << c;
        index.CandidateDiffRows(change, rows);
        ASSERT_EQ(DiffPlacements(snap.current_placement(), incumbent, rows,
                                 suspend, resume),
                  DiffPlacements(snap.current_placement(), incumbent, suspend,
                                 resume))
            << "seed " << seed << " candidate " << c;
      }
      if (change.feasible && rng.Uniform01() < 0.3) {
        index.Commit(incumbent, change);
        ++commits;
        const IncumbentIndex rebuilt(snap, incumbent);
        ASSERT_EQ(index.job_nodes(), rebuilt.job_nodes()) << "seed " << seed;
        ASSERT_EQ(index.changed_rows(), rebuilt.changed_rows())
            << "seed " << seed;
        ASSERT_TRUE(rebuilt.feasible()) << "seed " << seed;
      } else {
        change.RevertFrom(incumbent);
      }
    }
  }
  std::printf("%d feasible candidates distributed, %d commits\n", distributed,
              commits);
  EXPECT_GT(distributed, 1'000);
  EXPECT_GT(commits, 300);
}

TEST(IncumbentIndexTest, DistributeRefusesAnInfeasibleVerdict) {
  SnapshotBuilder b(testing_fixtures::TinyCluster(2));
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  PlacementMatrix p = snap.current_placement();
  const IncumbentIndex index(snap, p);
  CandidateChange change;
  change.Add(0, 1, +1);  // the job on both nodes
  change.Seal();
  change.ApplyTo(p);
  change.feasible =
      snap.IsFeasibleChange(p, index.feasible(), change.rows, change.nodes);
  EXPECT_FALSE(change.feasible);
  DistributorScratch scratch;
  EXPECT_THROW(LoadDistributor(&snap).Distribute(p, index, change, scratch),
               std::logic_error);
}

}  // namespace
}  // namespace mwp
