// Property test: the incremental evaluation engine (column cache, scratch
// reuse, bound-based early exit, parallel candidate search) is bit-for-bit
// equivalent to a freshly-constructed sequential evaluator. Every speedup in
// the hot path is justified by an exactness argument (memoized values are
// the exact doubles recomputation would produce, summation orders are
// preserved); this test checks the end-to-end claim over randomized
// snapshots with exact ==, not tolerances.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/placement_optimizer.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::AddRandomConstraints;
using testing_fixtures::RepeatingCandidateSequence;
using testing_fixtures::SnapshotBuilder;

/// A small random mixed-workload snapshot: a few nodes, a batch of jobs in
/// random states, and up to two transactional apps.
SnapshotBuilder RandomSnapshot(Rng& rng) {
  const int nodes = static_cast<int>(rng.UniformInt(1, 4));
  SnapshotBuilder b(
      ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0}));
  b.now = rng.Uniform(0.0, 10.0);
  b.cycle = rng.Uniform(0.5, 2.0);
  // Free memory per node: the generated *current* placement must be
  // feasible, so instances land only where they fit.
  std::vector<Megabytes> free_mem(static_cast<std::size_t>(nodes), 2'000.0);
  auto pick_node = [&](Megabytes need) -> NodeId {
    const int start = static_cast<int>(rng.UniformInt(0, nodes - 1));
    for (int k = 0; k < nodes; ++k) {
      const int n = (start + k) % nodes;
      if (free_mem[static_cast<std::size_t>(n)] >= need) return n;
    }
    return kInvalidNode;
  };

  const int num_jobs = static_cast<int>(rng.UniformInt(0, 7));
  for (int j = 0; j < num_jobs; ++j) {
    const Megacycles work = rng.Uniform(500.0, 8'000.0);
    const MHz max_speed = rng.Uniform(200.0, 1'000.0);
    const Megabytes memory = rng.Uniform(200.0, 900.0);
    const Seconds submit = rng.Uniform(0.0, b.now);
    const double factor = rng.Uniform(1.5, 6.0);
    JobStatus status = JobStatus::kNotStarted;
    NodeId node = kInvalidNode;
    Megacycles done = 0.0;
    const double roll = rng.Uniform01();
    if (roll < 0.4) {
      node = pick_node(memory);
      if (node != kInvalidNode) {
        status = JobStatus::kRunning;
        done = rng.Uniform(0.0, 0.8 * work);
        free_mem[static_cast<std::size_t>(node)] -= memory;
      }
    } else if (roll < 0.55) {
      status = JobStatus::kSuspended;
      done = rng.Uniform(0.0, 0.8 * work);
    }
    JobView& v = b.AddJob(j + 1, work, max_speed, memory, submit, factor,
                          status, node, done);
    if (status == JobStatus::kSuspended || status == JobStatus::kNotStarted) {
      v.place_overhead = rng.Uniform(0.0, 0.2);
    }
  }

  const int num_tx = static_cast<int>(rng.UniformInt(0, 2));
  for (int w = 0; w < num_tx; ++w) {
    TransactionalAppSpec spec;
    spec.id = 100 + w;
    spec.name = "tx";
    spec.memory_per_instance = rng.Uniform(300.0, 800.0);
    spec.response_time_goal = rng.Uniform(0.5, 2.0);
    spec.demand_per_request = rng.Uniform(5.0, 30.0);
    spec.min_response_time = 0.05;
    spec.saturation_allocation = rng.Uniform(400.0, 1'200.0);
    std::vector<NodeId> on;
    if (rng.Uniform01() < 0.7) {
      const NodeId n = pick_node(spec.memory_per_instance);
      if (n != kInvalidNode) {
        on.push_back(n);
        free_mem[static_cast<std::size_t>(n)] -= spec.memory_per_instance;
      }
    }
    b.AddTx(spec, rng.Uniform(1.0, 25.0), std::move(on));
  }
  return b;
}

PlacementOptimizer::Options ReferenceOptions() {
  PlacementOptimizer::Options o;
  o.evaluator.incremental = false;
  o.search_threads = 1;
  return o;
}

/// The bits of each double, so NaN compares equal to itself.
std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

std::vector<std::uint64_t> Bits(const LoadMatrix& loads) {
  std::vector<std::uint64_t> bits;
  for (int e = 0; e < loads.num_apps(); ++e) {
    for (int n = 0; n < loads.num_nodes(); ++n) {
      bits.push_back(std::bit_cast<std::uint64_t>(loads.at(e, n)));
    }
  }
  return bits;
}

void ExpectIdentical(const PlacementOptimizer::Result& got,
                     const PlacementOptimizer::Result& want,
                     std::uint64_t seed) {
  EXPECT_EQ(got.placement, want.placement) << "seed " << seed;
  EXPECT_EQ(got.evaluations, want.evaluations) << "seed " << seed;
  EXPECT_EQ(got.used_shortcut, want.used_shortcut) << "seed " << seed;
  // Exact ==: the engines must produce the same doubles, not close ones.
  EXPECT_EQ(got.evaluation.score, want.evaluation.score)
      << "seed " << seed;
  EXPECT_EQ(got.evaluation.entity_utilities, want.evaluation.entity_utilities)
      << "seed " << seed;
  EXPECT_EQ(got.evaluation.changes, want.evaluation.changes)
      << "seed " << seed;
  const DistributionResult& got_dist = got.evaluation.distribution;
  const DistributionResult& want_dist = want.evaluation.distribution;
  EXPECT_EQ(got_dist.totals, want_dist.totals) << "seed " << seed;
  EXPECT_EQ(Bits(got_dist.Loads()), Bits(want_dist.Loads())) << "seed " << seed;
  EXPECT_EQ(got_dist.placed, want_dist.placed) << "seed " << seed;
  EXPECT_EQ(Bits(got_dist.utilities), Bits(want_dist.utilities))
      << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got_dist.batch_level),
            std::bit_cast<std::uint64_t>(want_dist.batch_level))
      << "seed " << seed;
}

TEST(EvaluatorEquivalenceTest, IncrementalMatchesReferenceOnRandomSnapshots) {
  constexpr int kSnapshots = 220;
  for (std::uint64_t seed = 1; seed <= kSnapshots; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    const PlacementSnapshot snap = b.Build();

    const PlacementOptimizer optimized(&snap);  // defaults: all engines on
    const PlacementOptimizer reference(&snap, ReferenceOptions());
    ExpectIdentical(optimized.Optimize(), reference.Optimize(), seed);
    if (HasFailure()) break;
  }
}

TEST(EvaluatorEquivalenceTest, ParallelSearchMatchesReference) {
  // Force multiple lanes regardless of the host's core count: the chunked
  // search must pick the same winners in the same order.
  PlacementOptimizer::Options parallel;
  parallel.search_threads = 4;
  for (std::uint64_t seed = 1'000; seed < 1'060; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    const PlacementSnapshot snap = b.Build();

    const PlacementOptimizer optimized(&snap, parallel);
    const PlacementOptimizer reference(&snap, ReferenceOptions());
    ExpectIdentical(optimized.Optimize(), reference.Optimize(), seed);
    if (HasFailure()) break;
  }
}

TEST(EvaluatorEquivalenceTest, ConstrainedSnapshotsMatchReference) {
  // Pins and separations send every feasibility verdict through the full
  // check; a current placement that violates one is refused by both
  // engines alike. The constraints come from their own generator, so the
  // snapshots are those of the test above.
  int solved = 0;
  int refused = 0;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    PlacementSnapshot snap = b.Build();
    Rng constraint_rng(seed + 1'000'000);
    AddRandomConstraints(constraint_rng, snap);

    const PlacementOptimizer optimized(&snap);
    const PlacementOptimizer reference(&snap, ReferenceOptions());
    if (!snap.IsFeasible(snap.current_placement())) {
      EXPECT_THROW(optimized.Optimize(), std::logic_error) << "seed " << seed;
      EXPECT_THROW(reference.Optimize(), std::logic_error) << "seed " << seed;
      ++refused;
    } else {
      ExpectIdentical(optimized.Optimize(), reference.Optimize(), seed);
      ++solved;
    }
    if (HasFailure()) break;
  }
  std::printf("%d constrained snapshots solved, %d infeasible ones refused\n",
              solved, refused);
  EXPECT_GT(solved, 50);
  EXPECT_GT(refused, 20);
}

TEST(EvaluatorEquivalenceTest, RepeatedEvaluationsReuseCacheExactly) {
  // Evaluating the same placements twice through one evaluator must return
  // the same doubles as the first pass (the cache returns what it stored),
  // and the cache must actually be exercised.
  Rng rng(42);
  const SnapshotBuilder b = RandomSnapshot(rng);
  const PlacementSnapshot snap = b.Build();
  const PlacementEvaluator eval(&snap);

  const PlacementMatrix& current = snap.current_placement();
  const PlacementEvaluation first = eval.Evaluate(current);
  const PlacementEvaluation second = eval.Evaluate(current);
  EXPECT_EQ(first.score, second.score);
  EXPECT_EQ(first.entity_utilities, second.entity_utilities);
  if (snap.num_jobs() > 0) {
    EXPECT_GT(eval.cache_misses(), 0u);
  }
}

/// Every output bit of an evaluation, its distribution's included.
std::vector<std::uint64_t> EvaluationBits(const PlacementEvaluation& e) {
  const auto bits_of = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<std::uint64_t> bits;
  const auto add = [&](const std::vector<double>& values) {
    bits.push_back(values.size());
    for (const double v : values) bits.push_back(bits_of(v));
  };
  const DistributionResult& d = e.distribution;
  add(d.totals);
  add(d.utilities);
  for (const bool placed : d.placed) bits.push_back(placed ? 1 : 0);
  for (const int node : d.job_nodes) {
    bits.push_back(static_cast<std::uint64_t>(node));
  }
  bits.push_back(bits_of(d.batch_level));
  const std::vector<std::uint64_t> loads = Bits(d.Loads());
  bits.insert(bits.end(), loads.begin(), loads.end());
  add(e.entity_utilities);
  add(e.job_future_speeds);
  add(e.score);
  bits.push_back(e.changes.size());
  for (const PlacementChange& c : e.changes) {
    for (const int v : {static_cast<int>(c.kind), c.app, c.from_node,
                        c.to_node}) {
      bits.push_back(static_cast<std::uint64_t>(v));
    }
  }
  bits.push_back(bits_of(e.batch_allocation));
  bits.push_back(bits_of(e.tx_allocation));
  bits.push_back(e.rejected_by_bound ? 1 : 0);
  return bits;
}

TEST(EvaluatorEquivalenceTest, RepeatedInputsScoreAsRecorded) {
  // One evaluator and one scratch per snapshot score candidates whose
  // inputs repeat, alternate, keep the batch node list with one edge cap
  // changed, or move a job between nodes of equal CPU; the jobs pay a
  // migration latency, so a job's node matters beside its allocation.
  // Every output bit, the distributor's per-call counters and the column
  // cache's hits and misses fold into a constant recorded before the
  // scratches kept their last water-fill and job states; each call must
  // also match a fresh evaluator on a fresh scratch.
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  std::size_t calls = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    SnapshotBuilder b = RandomSnapshot(rng);
    Rng overhead_rng(seed + 2'000'000);
    for (JobView& v : b.jobs) {
      v.migrate_overhead = overhead_rng.Uniform(0.0, 1.5);
    }
    const PlacementSnapshot snap = b.Build();
    const std::vector<PlacementMatrix> sequence =
        RepeatingCandidateSequence(snap, rng);
    const PlacementEvaluator evaluator(&snap);
    EvalScratch reused;
    for (std::size_t k = 0; k < sequence.size(); ++k) {
      const DistributorScratch::Stats before = reused.distributor.stats();
      const PlacementEvaluation got =
          evaluator.Evaluate(sequence[k], reused, nullptr);
      const DistributorScratch::Stats& after = reused.distributor.stats();
      const PlacementEvaluator fresh_evaluator(&snap);
      EvalScratch fresh;
      const PlacementEvaluation want =
          fresh_evaluator.Evaluate(sequence[k], fresh, nullptr);
      const std::vector<std::uint64_t> bits = EvaluationBits(got);
      EXPECT_EQ(bits, EvaluationBits(want)) << "seed " << seed << " call " << k;
      const DistributorScratch::Stats& once = fresh.distributor.stats();
      const std::vector<std::uint64_t> counts = {
          after.distribute_calls - before.distribute_calls,
          after.flow_probes - before.flow_probes,
          after.rerouting_paths - before.rerouting_paths,
          after.unshared_calls - before.unshared_calls,
          after.decompositions - before.decompositions};
      EXPECT_EQ(counts,
                (std::vector<std::uint64_t>{once.distribute_calls,
                                            once.flow_probes,
                                            once.rerouting_paths,
                                            once.unshared_calls,
                                            once.decompositions}))
          << "seed " << seed << " call " << k;
      for (const std::uint64_t v : bits) mix(v);
      for (const std::uint64_t v : counts) mix(v);
      ++calls;
    }
    mix(evaluator.cache_hits());
    mix(evaluator.cache_misses());
  }
  std::printf("repeated-input fingerprint over %zu calls: 0x%016llx\n", calls,
              static_cast<unsigned long long>(h));
  EXPECT_EQ(h, 0xd51a39c89059cc18ULL);
}

}  // namespace
}  // namespace mwp
