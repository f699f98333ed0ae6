#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

// §4.3 at cycle 2 (t = 1): J1 ran the first cycle at 1,000 MHz (1,000 Mc
// done), J2 just arrived. Two candidate placements: P1 = both running,
// P2 = J1 alone.
struct Cycle2Fixture {
  SnapshotBuilder b{TinyCluster(1)};

  Cycle2Fixture(double j2_factor) {
    b.now = 1.0;
    b.cycle = 1.0;
    b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0,
             /*done=*/1'000.0);
    b.AddJob(2, 2'000.0, 500.0, 750.0, 1.0, j2_factor);
  }

  PlacementMatrix P1() const {
    PlacementMatrix p(2, 1);
    p.at(0, 0) = 1;
    p.at(1, 0) = 1;
    return p;
  }
  PlacementMatrix P2() const {
    PlacementMatrix p(2, 1);
    p.at(0, 0) = 1;
    return p;
  }
};

TEST(PlacementEvaluatorTest, Scenario1PlacementsTieAtPoint7) {
  Cycle2Fixture f(/*j2_factor=*/4.0);
  const PlacementSnapshot snap = f.b.Build();
  PlacementEvaluator eval(&snap);
  const auto e1 = eval.Evaluate(f.P1());
  const auto e2 = eval.Evaluate(f.P2());
  // Figure 1 S1: both placements score ≈ (0.7, 0.7).
  EXPECT_NEAR(e1.score[0], 0.695, 0.02);
  EXPECT_NEAR(e1.score[1], 0.695, 0.02);
  EXPECT_NEAR(e2.score[0], 0.6875, 0.02);
  EXPECT_NEAR(e2.score[1], 0.70, 0.02);
  // Tied on utility; P2 wins by fewer changes (it is the incumbent).
  EXPECT_EQ(eval.Compare(e2, e1), 1);
  EXPECT_EQ(e2.changes.size(), 0u);
  EXPECT_EQ(e1.changes.size(), 1u);
}

TEST(PlacementEvaluatorTest, Scenario2PrefersEqualization) {
  Cycle2Fixture f(/*j2_factor=*/3.0);
  const PlacementSnapshot snap = f.b.Build();
  PlacementEvaluator eval(&snap);
  const auto e1 = eval.Evaluate(f.P1());
  const auto e2 = eval.Evaluate(f.P2());
  // Figure 1 S2: P1 ≈ (0.65, 0.65) beats P2 ≈ (0.6, 0.7).
  EXPECT_NEAR(e1.score[0], 0.655, 0.02);
  EXPECT_NEAR(e2.score[0], 0.583, 0.02);
  EXPECT_EQ(eval.Compare(e1, e2), 1);
}

TEST(PlacementEvaluatorTest, JobCompletingInsideCycleGetsExactUtility) {
  SnapshotBuilder b(TinyCluster(1));
  b.now = 0.0;
  b.cycle = 10.0;
  b.AddJob(1, 2'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0);
  const PlacementSnapshot snap = b.Build();
  PlacementEvaluator eval(&snap);
  const auto e = eval.Evaluate(snap.current_placement());
  // Completes at 2 s at full speed; goal 10 s → u = 0.8.
  EXPECT_NEAR(e.entity_utilities[0], 0.8, 0.01);
}

TEST(PlacementEvaluatorTest, UnplacedJobScoredThroughHypothetical) {
  SnapshotBuilder b(TinyCluster(1));
  b.now = 0.0;
  b.cycle = 1.0;
  b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);  // queued
  const PlacementSnapshot snap = b.Build();
  PlacementEvaluator eval(&snap);
  PlacementMatrix empty(1, 1);
  const auto e = eval.Evaluate(empty);
  // If it starts at cycle end and runs at max: completes at 5 → u = 0.75;
  // with zero aggregate assumed, interpolation gives the floor row instead.
  EXPECT_LE(e.entity_utilities[0], 0.75 + 1e-9);
}

TEST(PlacementEvaluatorTest, BatchAllocationSumsJobTotals) {
  Cycle2Fixture f(4.0);
  const PlacementSnapshot snap = f.b.Build();
  PlacementEvaluator eval(&snap);
  const auto e = eval.Evaluate(f.P1());
  EXPECT_NEAR(e.batch_allocation,
              e.distribution.totals[0] + e.distribution.totals[1], 1e-9);
  EXPECT_NEAR(e.batch_allocation, 1'000.0, 5.0);
}

TEST(PlacementEvaluatorTest, ChangesClassifiedAgainstIncumbent) {
  SnapshotBuilder b(TinyCluster(2));
  b.now = 10.0;
  b.cycle = 1.0;
  b.AddJob(1, 40'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kRunning, 0,
           /*done=*/5'000.0);
  b.AddJob(2, 40'000.0, 1'000.0, 750.0, 0.0, 5.0, JobStatus::kSuspended);
  b.AddJob(3, 40'000.0, 1'000.0, 750.0, 5.0, 5.0);  // never started
  const PlacementSnapshot snap = b.Build();
  PlacementEvaluator eval(&snap);

  PlacementMatrix p(3, 2);
  p.at(0, 1) = 1;  // migrate job 1 from node 0 to 1
  p.at(1, 0) = 1;  // resume job 2
  p.at(2, 0) = 1;  // start job 3
  const auto e = eval.Evaluate(p);
  ASSERT_EQ(e.changes.size(), 3u);
  int migrates = 0, resumes = 0, starts = 0;
  for (const auto& ch : e.changes) {
    if (ch.kind == PlacementChange::Kind::kMigrate) ++migrates;
    if (ch.kind == PlacementChange::Kind::kResume) ++resumes;
    if (ch.kind == PlacementChange::Kind::kStart) ++starts;
  }
  EXPECT_EQ(migrates, 1);
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(starts, 1);
}

TEST(PlacementEvaluatorTest, TxUtilityFromQueuingModel) {
  SnapshotBuilder b(TinyCluster(2));
  b.cycle = 1.0;
  TransactionalAppSpec spec;
  spec.id = 9;
  spec.name = "tx";
  spec.memory_per_instance = 200.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 1'500.0;
  b.AddTx(spec, /*rate=*/800.0, {0, 1});
  const PlacementSnapshot snap = b.Build();
  PlacementEvaluator eval(&snap);
  const auto e = eval.Evaluate(snap.current_placement());
  // Unchallenged: tx reaches its saturation allocation and max utility.
  EXPECT_NEAR(e.tx_allocation, 1'500.0, 5.0);
  EXPECT_NEAR(e.entity_utilities[0],
              snap.tx(0).app->ModelAt(800.0).max_utility(), 0.01);
}

TEST(PlacementEvaluatorTest, CompareIsLexicographic) {
  Cycle2Fixture f(4.0);
  const PlacementSnapshot snap = f.b.Build();
  PlacementEvaluator::Options opts;
  opts.tie_tolerance = 0.001;  // tight: the S1 tie now resolves
  PlacementEvaluator eval(&snap, opts);
  const auto e1 = eval.Evaluate(f.P1());
  const auto e2 = eval.Evaluate(f.P2());
  // With a tight tolerance P1's higher minimum (0.695 vs 0.6875) wins.
  EXPECT_EQ(eval.Compare(e1, e2), 1);
}

TEST(PlacementEvaluatorTest, FutureSpeedsExposedPerJob) {
  Cycle2Fixture f(4.0);
  const PlacementSnapshot snap = f.b.Build();
  PlacementEvaluator eval(&snap);
  const auto e = eval.Evaluate(f.P1());
  ASSERT_EQ(e.job_future_speeds.size(), 2u);
  // Figure 1's S1-P1 boxes: interpolated speeds ≈ (612, 387), summing to
  // the aggregate.
  EXPECT_NEAR(e.job_future_speeds[0] + e.job_future_speeds[1],
              e.batch_allocation, 5.0);
  EXPECT_GT(e.job_future_speeds[0], e.job_future_speeds[1]);
}

TEST(PlacementEvaluatorTest, MigrationOverheadWorsensCandidate) {
  // The same target placement scored as a migration (job currently on the
  // other node) vs as already-in-place: the migration's VM latency must
  // cost utility.
  auto make = [](NodeId current) {
    SnapshotBuilder b(TinyCluster(2));
    b.now = 0.0;
    b.cycle = 5.0;
    auto& j = b.AddJob(1, 5'000.0, 1'000.0, 750.0, 0.0, 1.6,
                       JobStatus::kRunning, current, /*done=*/1'000.0);
    j.migrate_overhead = 2.0;  // large relative to the 8 s goal
    return b;
  };
  auto b_stay = make(0);
  const PlacementSnapshot snap_stay = b_stay.Build();
  auto b_move = make(1);
  const PlacementSnapshot snap_move = b_move.Build();
  PlacementMatrix target(1, 2);
  target.at(0, 0) = 1;
  const auto stay = PlacementEvaluator(&snap_stay).Evaluate(target);
  const auto move = PlacementEvaluator(&snap_move).Evaluate(target);
  EXPECT_LT(move.entity_utilities[0], stay.entity_utilities[0]);
  ASSERT_EQ(move.changes.size(), 1u);
  EXPECT_EQ(move.changes[0].kind, PlacementChange::Kind::kMigrate);
}

TEST(PlacementEvaluatorTest, EmptySnapshotEvaluates) {
  SnapshotBuilder b(TinyCluster(2));
  const PlacementSnapshot snap = b.Build();
  PlacementEvaluator eval(&snap);
  const auto e = eval.Evaluate(snap.current_placement());
  EXPECT_TRUE(e.score.empty());
  EXPECT_DOUBLE_EQ(e.batch_allocation, 0.0);
  EXPECT_TRUE(e.changes.empty());
}

TEST(PlacementEvaluatorTest, SortedVectorIsSorted) {
  Cycle2Fixture f(3.0);
  const PlacementSnapshot snap = f.b.Build();
  PlacementEvaluator eval(&snap);
  const auto e = eval.Evaluate(f.P2());
  for (std::size_t i = 1; i < e.score.size(); ++i) {
    EXPECT_LE(e.score[i - 1], e.score[i]);
  }
}

TEST(PlacementEvaluatorTest, OverheadDelaysReflectedInPrediction) {
  SnapshotBuilder b(TinyCluster(1));
  b.now = 0.0;
  b.cycle = 1.0;
  auto& j = b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  j.place_overhead = 3.6;  // VM boot
  const PlacementSnapshot snap = b.Build();
  PlacementEvaluator eval(&snap);
  PlacementMatrix p(1, 1);
  p.at(0, 0) = 1;
  const auto with_boot = eval.Evaluate(p);

  SnapshotBuilder b2(TinyCluster(1));
  b2.now = 0.0;
  b2.cycle = 1.0;
  b2.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
  const PlacementSnapshot snap2 = b2.Build();
  PlacementEvaluator eval2(&snap2);
  const auto without_boot = eval2.Evaluate(p);

  EXPECT_LT(with_boot.entity_utilities[0], without_boot.entity_utilities[0]);
}

TEST(PlacementEvaluatorTest, ScratchOfAnotherEvaluatorIsNotReused) {
  // Three jobs on two nodes under two snapshots that differ only in the
  // goal factor. The jobs reach the same (work done, start delay) states in
  // both, so a column memo that did not know its evaluator would hand the
  // second evaluator the first one's columns — freed with the first
  // evaluator's cache.
  const auto build = [](double factor) {
    SnapshotBuilder b(TinyCluster(2));
    b.now = 1.0;
    b.cycle = 1.0;
    b.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, factor, JobStatus::kRunning, 0,
             /*done=*/1'000.0);
    b.AddJob(2, 2'000.0, 500.0, 750.0, 0.0, factor, JobStatus::kRunning, 1,
             /*done=*/500.0);
    b.AddJob(3, 3'000.0, 800.0, 750.0, 1.0, factor);
    return b;
  };
  const SnapshotBuilder first_builder = build(2.0);
  const SnapshotBuilder second_builder = build(5.0);
  const PlacementSnapshot first_snap = first_builder.Build();
  const PlacementSnapshot second_snap = second_builder.Build();
  const PlacementMatrix& p = second_snap.current_placement();

  EvalScratch scratch;
  {
    const PlacementEvaluator first(&first_snap);
    first.Evaluate(first_snap.current_placement(), scratch, nullptr);
  }
  const PlacementEvaluator second(&second_snap);
  const PlacementEvaluation reused = second.Evaluate(p, scratch, nullptr);
  EvalScratch fresh;
  const PlacementEvaluation expected = second.Evaluate(p, fresh, nullptr);

  ASSERT_EQ(reused.entity_utilities.size(), expected.entity_utilities.size());
  for (std::size_t e = 0; e < expected.entity_utilities.size(); ++e) {
    std::printf("entity %zu: utility %.17g, fresh scratch %.17g\n", e,
                reused.entity_utilities[e], expected.entity_utilities[e]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.entity_utilities[e]),
              std::bit_cast<std::uint64_t>(expected.entity_utilities[e]))
        << "entity " << e;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.job_future_speeds[e]),
              std::bit_cast<std::uint64_t>(expected.job_future_speeds[e]))
        << "entity " << e;
  }
}

}  // namespace
}  // namespace mwp
