// Fairness objectives: unit tests for the objective implementations plus
// decision-level property tests.
//
// Max-min, Karma and PF all take the evaluator's one objective path; max-min
// is the zero-bias case of the biased max-min objective Karma uses. The
// property tests here pin that path within one build — identical results
// across thread counts and across the sharded/monolithic engines, and a
// max-min score equal to the sorted RP vector. Across commits, the golden
// replay gate (replay.golden_tight.*, 1e-9) pins max-min and
// FairnessFingerprintTest pins the decisions of all three objectives.

#include "core/fairness_objective.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "batch/job_factory.h"
#include "common/rng.h"
#include "core/apc_controller.h"
#include "core/evaluator.h"
#include "core/placement_optimizer.h"
#include "core/sharded_optimizer.h"
#include "obs/trace_export.h"
#include "replay/replay.h"
#include "replay/trace_reader.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;

// ---------------------------------------------------------------------------
// Names, wire ids, factory.

TEST(FairnessObjectiveTest, NamesAndParseRoundTrip) {
  for (const FairnessObjectiveKind kind :
       {FairnessObjectiveKind::kMaxMin, FairnessObjectiveKind::kKarma,
        FairnessObjectiveKind::kProportionalFairness}) {
    const auto parsed = ParseFairnessObjective(FairnessObjectiveName(kind));
    ASSERT_TRUE(parsed.has_value()) << FairnessObjectiveName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  // Spelled-out aliases accepted by --objective=.
  EXPECT_EQ(ParseFairnessObjective("max-min"), FairnessObjectiveKind::kMaxMin);
  EXPECT_EQ(ParseFairnessObjective("proportional"),
            FairnessObjectiveKind::kProportionalFairness);
  EXPECT_FALSE(ParseFairnessObjective("fifo").has_value());
  EXPECT_FALSE(ParseFairnessObjective("").has_value());

  // Wire ids are frozen by schema-v2 traces.
  EXPECT_TRUE(ValidFairnessObjectiveId(0));
  EXPECT_TRUE(ValidFairnessObjectiveId(1));
  EXPECT_TRUE(ValidFairnessObjectiveId(2));
  EXPECT_FALSE(ValidFairnessObjectiveId(-1));
  EXPECT_FALSE(ValidFairnessObjectiveId(3));
}

// Two running jobs on two nodes => two entities.
PlacementSnapshot TwoEntitySnapshot(SnapshotBuilder& b) {
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  b.AddJob(2, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 1);
  return b.Build();
}

TEST(FairnessObjectiveTest, FactoryBuildsEveryKindAndMaxMinIgnoresCredits) {
  SnapshotBuilder b(testing_fixtures::TinyCluster(2));
  PlacementSnapshot snap = TwoEntitySnapshot(b);
  snap.set_fairness_credits({8.0, 8.0});
  FairnessObjectiveConfig config;
  for (const FairnessObjectiveKind kind :
       {FairnessObjectiveKind::kMaxMin, FairnessObjectiveKind::kKarma,
        FairnessObjectiveKind::kProportionalFairness}) {
    config.kind = kind;
    EXPECT_NE(MakeFairnessObjective(config, snap), nullptr)
        << FairnessObjectiveName(kind);
  }

  // Max-min is the zero-bias objective: credits on the snapshot do not
  // bias it, and its score is the utilities sorted ascending.
  config.kind = FairnessObjectiveKind::kMaxMin;
  const auto maxmin = MakeFairnessObjective(config, snap);
  EXPECT_EQ(maxmin->EntityBias(0), 0.0);
  EXPECT_EQ(maxmin->EntityBias(1), 0.0);
  std::vector<double> score;
  maxmin->Score({0.6, 0.5}, score);
  EXPECT_EQ(score, (std::vector<double>{0.5, 0.6}));
  EXPECT_EQ(score, RpVector({0.6, 0.5}));
}

// ---------------------------------------------------------------------------
// Karma objective semantics.

TEST(FairnessObjectiveTest, KarmaBiasScalesWithCredits) {
  SnapshotBuilder b(testing_fixtures::TinyCluster(2));
  PlacementSnapshot snap = TwoEntitySnapshot(b);
  FairnessObjectiveConfig config;
  config.kind = FairnessObjectiveKind::kKarma;
  config.karma_weight = 0.5;
  config.karma_cap = 8.0;

  // Entity 1 sits at the credit cap: it looks karma_weight worse than its
  // instantaneous utility. Entity 0 has no credits and no bias.
  snap.set_fairness_credits({0.0, 8.0});
  auto objective = MakeFairnessObjective(config, snap);
  ASSERT_NE(objective, nullptr);
  EXPECT_DOUBLE_EQ(objective->EntityBias(0), 0.0);
  EXPECT_DOUBLE_EQ(objective->EntityBias(1), -0.5);

  // Half the cap => half the bias; out-of-range ledger values clamp.
  snap.set_fairness_credits({4.0, 100.0});
  objective = MakeFairnessObjective(config, snap);
  EXPECT_DOUBLE_EQ(objective->EntityBias(0), -0.25);
  EXPECT_DOUBLE_EQ(objective->EntityBias(1), -0.5);

  // No credit vector on the snapshot => all biases zero.
  snap.set_fairness_credits({});
  objective = MakeFairnessObjective(config, snap);
  EXPECT_DOUBLE_EQ(objective->EntityBias(0), 0.0);
  EXPECT_DOUBLE_EQ(objective->EntityBias(1), 0.0);
}

TEST(FairnessObjectiveTest, KarmaScoreIsAscendingEffectiveUtilities) {
  SnapshotBuilder b(testing_fixtures::TinyCluster(2));
  PlacementSnapshot snap = TwoEntitySnapshot(b);
  snap.set_fairness_credits({0.0, 8.0});
  FairnessObjectiveConfig config;
  config.kind = FairnessObjectiveKind::kKarma;
  const auto objective = MakeFairnessObjective(config, snap);

  std::vector<double> score;
  objective->Score({0.5, 0.6}, score);
  // Effective utilities {0.5, 0.6 - 0.5} sorted ascending.
  ASSERT_EQ(score.size(), 2u);
  EXPECT_DOUBLE_EQ(score[0], 0.6 - 0.5);
  EXPECT_DOUBLE_EQ(score[1], 0.5);
}

TEST(FairnessObjectiveTest, KarmaRejectBoundMatchesScoreIndexZero) {
  // The reject bound is the objective analog of Compare's index-0 early
  // exit: a candidate is rejected exactly when its own score would lose at
  // index 0 by more than the tolerance — so the bound can never throw away
  // a candidate Compare would have accepted.
  SnapshotBuilder b(testing_fixtures::TinyCluster(2));
  PlacementSnapshot snap = TwoEntitySnapshot(b);
  FairnessObjectiveConfig config;
  config.kind = FairnessObjectiveKind::kKarma;
  constexpr double kTol = 0.02;

  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    snap.set_fairness_credits(
        {rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)});
    const auto objective = MakeFairnessObjective(config, snap);
    const std::vector<Utility> cand = {rng.Uniform(-2.0, 1.0),
                                       rng.Uniform(-2.0, 1.0)};
    std::vector<double> cand_score;
    objective->Score(cand, cand_score);
    std::vector<double> bound;
    objective->Score({rng.Uniform(-2.0, 1.0), rng.Uniform(-2.0, 1.0)}, bound);

    const bool rejected = objective->RejectedByBound(cand, bound, kTol);
    EXPECT_EQ(rejected, cand_score[0] - bound[0] < -kTol)
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Proportional fairness semantics.

TEST(FairnessObjectiveTest, ProportionalFairnessScoreIsSumOfLogs) {
  SnapshotBuilder b(testing_fixtures::TinyCluster(1));
  const PlacementSnapshot snap = b.Build();
  FairnessObjectiveConfig config;
  config.kind = FairnessObjectiveKind::kProportionalFairness;
  config.pf_epsilon = 1e-6;
  const auto objective = MakeFairnessObjective(config, snap);

  std::vector<double> score;
  objective->Score({0.5, 0.8}, score);
  ASSERT_EQ(score.size(), 1u);
  const double expected = std::log(0.5 - kUtilityFloor + 1e-6) +
                          std::log(0.8 - kUtilityFloor + 1e-6);
  EXPECT_DOUBLE_EQ(score[0], expected);

  // Finite even for an entity sitting exactly on the utility floor.
  objective->Score({kUtilityFloor}, score);
  EXPECT_TRUE(std::isfinite(score[0]));

  // Raising any one utility raises the sum (strict monotonicity — the
  // property that makes PF favor helping anyone over helping no one).
  std::vector<double> lower, higher;
  objective->Score({0.5, 0.5}, lower);
  objective->Score({0.5, 0.6}, higher);
  EXPECT_GT(higher[0], lower[0]);
}

TEST(FairnessObjectiveTest, ProportionalFairnessBoundIsExact) {
  SnapshotBuilder b(testing_fixtures::TinyCluster(1));
  const PlacementSnapshot snap = b.Build();
  FairnessObjectiveConfig config;
  config.kind = FairnessObjectiveKind::kProportionalFairness;
  const auto objective = MakeFairnessObjective(config, snap);
  constexpr double kTol = 0.02;

  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<Utility> cand = {rng.Uniform(-2.0, 1.0),
                                       rng.Uniform(-2.0, 1.0),
                                       rng.Uniform(-2.0, 1.0)};
    std::vector<double> cand_score, bound;
    objective->Score(cand, cand_score);
    objective->Score({rng.Uniform(-2.0, 1.0), rng.Uniform(-2.0, 1.0),
                      rng.Uniform(-2.0, 1.0)},
                     bound);
    EXPECT_EQ(objective->RejectedByBound(cand, bound, kTol),
              cand_score[0] - bound[0] < -kTol)
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Refactor safety: the default objective is byte-identical across every
// engine configuration (ISSUE satellite — >= 200 random snapshots, 1/2/8
// search threads, and 1-cell sharding == monolithic).

/// Same generator shape as evaluator_equivalence_test.cc: a few nodes, jobs
/// in random states, up to two transactional apps, feasible placements.
SnapshotBuilder RandomSnapshot(Rng& rng) {
  const int nodes = static_cast<int>(rng.UniformInt(1, 4));
  SnapshotBuilder b(
      ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0}));
  b.now = rng.Uniform(0.0, 10.0);
  b.cycle = rng.Uniform(0.5, 2.0);
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

void ExpectIdentical(const PlacementOptimizer::Result& got,
                     const PlacementOptimizer::Result& want,
                     std::uint64_t seed) {
  EXPECT_EQ(got.placement, want.placement) << "seed " << seed;
  EXPECT_EQ(got.evaluations, want.evaluations) << "seed " << seed;
  EXPECT_EQ(got.used_shortcut, want.used_shortcut) << "seed " << seed;
  EXPECT_EQ(got.evaluation.score, want.evaluation.score) << "seed " << seed;
  EXPECT_EQ(got.evaluation.entity_utilities, want.evaluation.entity_utilities)
      << "seed " << seed;
  EXPECT_EQ(got.evaluation.changes, want.evaluation.changes)
      << "seed " << seed;
  EXPECT_EQ(got.evaluation.distribution.totals,
            want.evaluation.distribution.totals)
      << "seed " << seed;
}

TEST(FairnessDefaultEquivalenceTest, ByteIdenticalAcrossEnginesAndThreads) {
  constexpr int kSnapshots = 220;
  for (std::uint64_t seed = 1; seed <= kSnapshots; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    const PlacementSnapshot snap = b.Build();

    // Reference: sequential, non-incremental, default objective.
    PlacementOptimizer::Options reference_options;
    reference_options.evaluator.incremental = false;
    reference_options.search_threads = 1;
    const PlacementOptimizer reference(&snap, reference_options);
    const PlacementOptimizer::Result want = reference.Optimize();

    // The default objective scores a placement by its RP vector.
    EXPECT_EQ(want.evaluation.score, RpVector(want.evaluation.entity_utilities))
        << "seed " << seed;

    for (const int threads : {1, 2, 8}) {
      PlacementOptimizer::Options options;
      options.search_threads = threads;
      options.evaluator.objective.kind = FairnessObjectiveKind::kMaxMin;
      const PlacementOptimizer optimizer(&snap, options);
      const PlacementOptimizer::Result got = optimizer.Optimize();
      ExpectIdentical(got, want, seed);
    }

    // One-cell sharding still reduces to the monolithic solve with the
    // objective config threaded through the slice machinery.
    ShardedPlacementOptimizer::Options sharded_options;
    sharded_options.cell_size = 64;  // >= nodes => one cell
    sharded_options.cell.evaluator.objective.kind =
        FairnessObjectiveKind::kMaxMin;
    const ShardedPlacementOptimizer sharded(&snap, sharded_options);
    const ShardedPlacementOptimizer::Result sharded_result =
        sharded.Optimize();
    EXPECT_EQ(sharded_result.num_cells, 1) << "seed " << seed;
    EXPECT_EQ(sharded_result.global.placement, want.placement)
        << "seed " << seed;
    EXPECT_EQ(sharded_result.global.evaluation.score, want.evaluation.score)
        << "seed " << seed;
    EXPECT_EQ(sharded_result.global.evaluation.distribution.totals,
              want.evaluation.distribution.totals)
        << "seed " << seed;
    if (HasFailure()) break;
  }
}

TEST(FairnessDefaultEquivalenceTest, ZeroCreditKarmaDecidesLikeMaxMin) {
  // With an empty ledger every Karma bias is zero, so the effective
  // utilities equal the raw ones and the decisions must coincide with
  // max-min — the objective changes *when* tenants diverge, never the
  // baseline.
  for (std::uint64_t seed = 300; seed < 340; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    const PlacementSnapshot snap = b.Build();

    const PlacementOptimizer maxmin(&snap);
    PlacementOptimizer::Options karma_options;
    karma_options.evaluator.objective.kind = FairnessObjectiveKind::kKarma;
    const PlacementOptimizer karma(&snap, karma_options);

    const PlacementOptimizer::Result want = maxmin.Optimize();
    const PlacementOptimizer::Result got = karma.Optimize();
    EXPECT_EQ(got.placement, want.placement) << "seed " << seed;
    EXPECT_EQ(got.evaluation.entity_utilities, want.evaluation.entity_utilities)
        << "seed " << seed;
    EXPECT_EQ(got.evaluation.changes, want.evaluation.changes)
        << "seed " << seed;
    if (HasFailure()) break;
  }
}

TEST(FairnessShardingTest, OneCellKarmaMatchesMonolithic) {
  // The slice maps the global credit vector into cell-local entity order;
  // with one cell that mapping is the identity, so sharded Karma must be
  // exactly the monolithic Karma solve.
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    PlacementSnapshot snap = b.Build();
    std::vector<double> credits(
        static_cast<std::size_t>(snap.num_entities()));
    for (double& c : credits) c = rng.Uniform(0.0, 8.0);
    snap.set_fairness_credits(std::move(credits));

    PlacementOptimizer::Options cell_options;
    cell_options.evaluator.objective.kind = FairnessObjectiveKind::kKarma;
    cell_options.search_threads = 1;
    const PlacementOptimizer monolithic(&snap, cell_options);
    const PlacementOptimizer::Result want = monolithic.Optimize();

    ShardedPlacementOptimizer::Options sharded_options;
    sharded_options.cell_size = 64;
    sharded_options.cell = cell_options;
    const ShardedPlacementOptimizer sharded(&snap, sharded_options);
    const ShardedPlacementOptimizer::Result got = sharded.Optimize();
    EXPECT_EQ(got.num_cells, 1) << "seed " << seed;
    EXPECT_EQ(got.global.placement, want.placement) << "seed " << seed;
    EXPECT_EQ(got.global.evaluation.entity_utilities,
              want.evaluation.entity_utilities)
        << "seed " << seed;
    if (HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Cross-commit pin for every objective. The golden traces are all max-min,
// and on identical jobs Karma and PF place exactly like max-min, so nothing
// else notices a change that moves a Karma or PF decision. Each fingerprint
// folds the integer outcome of 220 one-lane solves; the expected values were
// printed by the commit that introduced this test.

/// FNV-1a 64 over the integer outcome of one solve: the placement matrix,
/// the evaluations counter and the number of placement changes.
std::uint64_t SolveHash(const PlacementOptimizer::Result& r) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint64_t>(v >> (8 * byte)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  mix(r.placement.num_apps());
  mix(r.placement.num_nodes());
  for (int e = 0; e < r.placement.num_apps(); ++e) {
    for (int n = 0; n < r.placement.num_nodes(); ++n) mix(r.placement.at(e, n));
  }
  mix(r.evaluations);
  mix(static_cast<std::int64_t>(r.evaluation.changes.size()));
  return h;
}

/// Per-seed solve hashes over RandomSnapshot seeds 1-220 under `kind`.
/// Karma snapshots carry seeded random credits in [0, 8].
std::vector<std::uint64_t> ObjectiveSolveHashes(FairnessObjectiveKind kind) {
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    Rng rng(seed);
    const SnapshotBuilder b = RandomSnapshot(rng);
    PlacementSnapshot snap = b.Build();
    if (kind == FairnessObjectiveKind::kKarma) {
      std::vector<double> credits(
          static_cast<std::size_t>(snap.num_entities()));
      for (double& c : credits) c = rng.Uniform(0.0, 8.0);
      snap.set_fairness_credits(std::move(credits));
    }
    PlacementOptimizer::Options options;
    options.search_threads = 1;
    options.evaluator.objective.kind = kind;
    hashes.push_back(SolveHash(PlacementOptimizer(&snap, options).Optimize()));
  }
  return hashes;
}

std::uint64_t Fingerprint(const std::vector<std::uint64_t>& hashes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint64_t v : hashes) {
    h ^= v;
    h *= 0x100000001B3ULL;
  }
  return h;
}

int SeedsDiffering(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b) {
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) differing += a[i] != b[i];
  return differing;
}

TEST(FairnessFingerprintTest, EveryObjectiveDecidesAsRecorded) {
  const std::vector<std::uint64_t> maxmin =
      ObjectiveSolveHashes(FairnessObjectiveKind::kMaxMin);
  const std::vector<std::uint64_t> karma =
      ObjectiveSolveHashes(FairnessObjectiveKind::kKarma);
  const std::vector<std::uint64_t> pf =
      ObjectiveSolveHashes(FairnessObjectiveKind::kProportionalFairness);
  std::printf(
      "fingerprints: maxmin=0x%016llx karma=0x%016llx pf=0x%016llx; "
      "seeds deciding unlike maxmin: karma=%d pf=%d of %zu\n",
      static_cast<unsigned long long>(Fingerprint(maxmin)),
      static_cast<unsigned long long>(Fingerprint(karma)),
      static_cast<unsigned long long>(Fingerprint(pf)),
      SeedsDiffering(karma, maxmin), SeedsDiffering(pf, maxmin),
      maxmin.size());

  EXPECT_EQ(Fingerprint(maxmin), 0x6d9d2c179087fdffULL);
  EXPECT_EQ(Fingerprint(karma), 0x5771f36cd761e9b8ULL);
  EXPECT_EQ(Fingerprint(pf), 0x8de9a5105835d98eULL);
  // The pin is not vacuous: both alternatives decide unlike max-min on a
  // good share of the corpus (Karma on 96 seeds, PF on 115).
  EXPECT_NE(Fingerprint(karma), Fingerprint(maxmin));
  EXPECT_NE(Fingerprint(pf), Fingerprint(maxmin));
  EXPECT_EQ(SeedsDiffering(karma, maxmin), 96);
  EXPECT_EQ(SeedsDiffering(pf, maxmin), 115);
}

// ---------------------------------------------------------------------------
// Karma changes decisions: optimizer-level flip and the controller ledger.

TEST(FairnessKarmaTest, CreditsFlipAContentionDecision) {
  // One node with memory for a single 1,100 MB VM, two identical queued
  // jobs. Max-min has no reason to prefer either and places job index 0
  // (stable order). Give entity 1 a full credit ledger: Karma must place
  // the shortchanged job instead — credits redeemed under contention.
  SnapshotBuilder b(testing_fixtures::TinyCluster(1));
  b.AddJob(1, 4'000.0, 1'000.0, 1'100.0, 0.0, 5.0);
  b.AddJob(2, 4'000.0, 1'000.0, 1'100.0, 0.0, 5.0);
  PlacementSnapshot snap = b.Build();

  const PlacementOptimizer maxmin(&snap);
  const PlacementOptimizer::Result maxmin_result = maxmin.Optimize();
  EXPECT_TRUE(maxmin_result.placement.IsPlaced(0));
  EXPECT_FALSE(maxmin_result.placement.IsPlaced(1));

  snap.set_fairness_credits({0.0, 8.0});
  PlacementOptimizer::Options karma_options;
  karma_options.evaluator.objective.kind = FairnessObjectiveKind::kKarma;
  const PlacementOptimizer karma(&snap, karma_options);
  const PlacementOptimizer::Result karma_result = karma.Optimize();
  EXPECT_FALSE(karma_result.placement.IsPlaced(0));
  EXPECT_TRUE(karma_result.placement.IsPlaced(1));
}

std::unique_ptr<Job> ContendingJob(AppId id, Megacycles work,
                                   double factor = 8.0) {
  JobProfile p = JobProfile::SingleStage(work, 1'000.0, 1'100.0);
  return std::make_unique<Job>(id, "job-" + std::to_string(id), p,
                               JobGoal::FromFactor(0.0, factor,
                                                   p.min_execution_time()));
}

ApcController::Config KarmaConfig(Seconds cycle = 1.0) {
  ApcController::Config cfg;
  cfg.control_cycle = cycle;
  cfg.costs = VmCostModel::Free();
  cfg.record_job_details = true;
  cfg.optimizer.evaluator.objective.kind = FairnessObjectiveKind::kKarma;
  return cfg;
}

TEST(FairnessKarmaTest, LedgerEarnsClampsAndPrunes) {
  // One node, two contending jobs: the placed job gets the whole node
  // (earning clamps at zero), the waiting job earns one credit per cycle up
  // to the cap. Completed jobs leave the ledger.
  const ClusterSpec cluster = testing_fixtures::TinyCluster(1);
  JobQueue queue;
  Simulation sim;
  ApcController controller(&cluster, &queue, KarmaConfig());

  queue.Submit(ContendingJob(1, 30'000.0));
  queue.Submit(ContendingJob(2, 30'000.0));
  controller.Attach(sim, 0.0);

  sim.RunUntil(4.0);
  {
    const auto& ledger = controller.karma_credits();
    ASSERT_EQ(ledger.size(), 2u);
    double max_credit = 0.0;
    for (const auto& [id, credits] : ledger) {
      EXPECT_GE(credits, 0.0) << "app " << id;
      EXPECT_LE(credits, 8.0) << "app " << id;
      max_credit = std::max(max_credit, credits);
    }
    // Somebody has been waiting under contention and earned for it.
    EXPECT_GT(max_credit, 0.5);
  }

  // Run the workload to completion: the ledger prunes entities that left
  // the system, and never exceeds the cap along the way.
  sim.RunUntil(90.0);
  controller.AdvanceJobsTo(sim.now());
  EXPECT_EQ(queue.num_completed(), 2u);
  EXPECT_TRUE(controller.karma_credits().empty());
}

/// Per-cycle decision signature (requires record_job_details): which jobs
/// are placed each cycle — any diverging placement decision shows up here.
std::vector<std::string> DecisionSignature(const ApcController& controller) {
  std::vector<std::string> out;
  out.reserve(controller.cycles().size());
  for (const CycleStats& c : controller.cycles()) {
    std::ostringstream os;
    for (const JobCycleDetail& d : c.job_details) {
      if (d.placed) os << d.id << ',';
    }
    out.push_back(os.str());
  }
  return out;
}

TEST(FairnessKarmaTest, LongHorizonKarmaDivergesFromMaxMinUnderContention) {
  // ISSUE acceptance criterion: over a long-horizon contended run, Karma
  // credits change at least one placement decision vs. max-min. One node,
  // six staggered jobs with heterogeneous goal factors: tight-goal jobs
  // look needy on raw relative performance, but long-waiting loose-goal
  // jobs carry more credits — where the bias gap exceeds the tie tolerance,
  // Karma refills freed capacity in a different order. The two runs differ
  // only in the configured objective; everything is deterministic.
  const ClusterSpec cluster = testing_fixtures::TinyCluster(1);
  struct Arrival {
    AppId id;
    Seconds submit;
    Megacycles work;
    double factor;
  };
  const std::vector<Arrival> arrivals = {
      {1, 0.0, 10'500.0, 3.0},  {2, 0.0, 10'000.0, 10.0},
      {3, 5.0, 10'000.0, 6.0},  {4, 12.0, 8'000.0, 4.0},
      {5, 18.0, 12'000.0, 8.0}, {6, 25.0, 6'000.0, 5.0},
  };

  auto run = [&](ApcController::Config cfg, std::vector<std::string>* sig,
                 double* peak_credit) {
    JobQueue queue;
    Simulation sim;
    ApcController controller(&cluster, &queue, cfg);
    for (const Arrival& a : arrivals) {
      sim.ScheduleAt(a.submit, [&queue, &controller, a](Simulation& s) {
        JobProfile p = JobProfile::SingleStage(a.work, 1'000.0, 1'100.0);
        queue.Submit(std::make_unique<Job>(
            a.id, "job-" + std::to_string(a.id), p,
            JobGoal::FromFactor(s.now(), a.factor, p.min_execution_time())));
        controller.OnJobSubmitted(s);
      });
    }
    controller.Attach(sim, 0.0);
    for (int step = 1; step <= 150; ++step) {
      sim.RunUntil(static_cast<Seconds>(step));
      if (peak_credit != nullptr) {
        for (const auto& [id, credits] : controller.karma_credits()) {
          *peak_credit = std::max(*peak_credit, credits);
        }
      }
    }
    controller.AdvanceJobsTo(sim.now());
    EXPECT_EQ(queue.num_completed(), 6u);
    *sig = DecisionSignature(controller);
  };

  ApcController::Config maxmin_cfg = KarmaConfig();
  maxmin_cfg.optimizer.evaluator.objective.kind =
      FairnessObjectiveKind::kMaxMin;
  std::vector<std::string> maxmin_sig;
  run(maxmin_cfg, &maxmin_sig, nullptr);

  std::vector<std::string> karma_sig;
  double peak_credit = 0.0;
  run(KarmaConfig(), &karma_sig, &peak_credit);

  // The ledger actually accumulated under contention...
  EXPECT_GT(peak_credit, 1.0);
  // ... and redeemed into at least one different placement decision.
  EXPECT_NE(karma_sig, maxmin_sig);
}

// ---------------------------------------------------------------------------
// Record -> replay: credit trajectories ride the schema-v2 trace.

TEST(FairnessReplayTest, KarmaTraceReplaysBitExact) {
  const ClusterSpec cluster = testing_fixtures::TinyCluster(1);
  JobQueue queue;
  Simulation sim;
  obs::TraceRecorder recorder;
  ApcController::Config cfg = KarmaConfig();
  cfg.trace = &recorder;
  cfg.trace_full = true;
  cfg.trace_run_id = "karma-selftest";
  ApcController controller(&cluster, &queue, cfg);

  queue.Submit(ContendingJob(1, 8'000.0));
  queue.Submit(ContendingJob(2, 8'000.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(20.0);
  controller.AdvanceJobsTo(sim.now());

  std::ostringstream os;
  obs::WriteTraceJsonl(os,
                       obs::MakeTraceContext("fairness", 0, cfg.control_cycle,
                                             "karma-selftest"),
                       recorder.Traces());
  std::string error;
  const auto parsed = replay::ParseTraceJsonl(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  // The objective id and the per-cycle credit vector made the round trip.
  bool saw_credits = false;
  for (const obs::CycleTrace& trace : parsed->cycles) {
    if (!trace.input.has_value()) continue;
    EXPECT_EQ(trace.input->options.objective, 1);
    if (!trace.input->fairness_credits.empty()) saw_credits = true;
  }
  EXPECT_TRUE(saw_credits);

  // Replaying reconstructs the Karma evaluator from the recorded credits,
  // so every cycle reproduces the recorded decision exactly.
  const replay::ReplayOptions options;
  const replay::ReplayReport report = replay::ReplayTrace(*parsed, options);
  EXPECT_GT(report.replayed_cycles, 0);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cycles_with_placement_diff, 0);
  EXPECT_EQ(report.max_rp_drift, 0.0);
}

TEST(FairnessReplayTest, UnknownObjectiveIdIsShapeMismatchNotCrash) {
  // Build a minimal valid trace, then corrupt the objective id: the replay
  // harness must flag a shape regression and keep going, never crash.
  const ClusterSpec cluster = testing_fixtures::TinyCluster(1);
  JobQueue queue;
  Simulation sim;
  obs::TraceRecorder recorder;
  ApcController::Config cfg = KarmaConfig();
  cfg.trace = &recorder;
  cfg.trace_full = true;
  ApcController controller(&cluster, &queue, cfg);
  queue.Submit(ContendingJob(1, 2'000.0));
  controller.Attach(sim, 0.0);
  sim.RunUntil(4.0);

  std::ostringstream os;
  obs::WriteTraceJsonl(os, obs::MakeTraceContext("fairness", 0, 1.0, "bad"),
                       recorder.Traces());
  std::string error;
  auto parsed = replay::ParseTraceJsonl(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_FALSE(parsed->cycles.empty());
  int corrupted = 0;
  for (obs::CycleTrace& trace : parsed->cycles) {
    if (trace.input.has_value()) {
      trace.input->options.objective = 7;  // not a wire id
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0);

  const replay::ReplayReport report =
      replay::ReplayTrace(*parsed, replay::ReplayOptions{});
  EXPECT_FALSE(report.ok());
  int mismatches = 0;
  for (const replay::CycleReplayDiff& diff : report.cycles) {
    if (diff.shape_mismatch) ++mismatches;
  }
  EXPECT_EQ(mismatches, corrupted);
}

}  // namespace
}  // namespace mwp
