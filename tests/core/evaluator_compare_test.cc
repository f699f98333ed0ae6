// Edge cases of PlacementEvaluator::Compare around the tie tolerance
// (§3.2: sorted utility vectors whose elements all differ by less than the
// tolerance are tied, and then fewer placement changes wins), plus the
// bound-based early exit's agreement with Compare.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/evaluator.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

constexpr double kTol = 0.02;  // the default tie tolerance

PlacementEvaluation Eval(std::vector<Utility> sorted, std::size_t changes) {
  PlacementEvaluation e;
  e.score = std::move(sorted);
  e.changes.resize(changes);
  return e;
}

class CompareTest : public ::testing::Test {
 protected:
  CompareTest() : builder_(TinyCluster(1)) {
    builder_.AddJob(1, 4'000.0, 1'000.0, 750.0, 0.0, 5.0);
    snap_ = std::make_unique<PlacementSnapshot>(builder_.Build());
    eval_ = std::make_unique<PlacementEvaluator>(snap_.get());
  }

  int Compare(const PlacementEvaluation& a, const PlacementEvaluation& b) {
    return eval_->Compare(a, b);
  }

  SnapshotBuilder builder_;
  std::unique_ptr<PlacementSnapshot> snap_;
  std::unique_ptr<PlacementEvaluator> eval_;
};

TEST_F(CompareTest, DifferenceBeyondToleranceWinsAtFirstIndex) {
  const auto a = Eval({0.5, 0.9}, 3);
  const auto b = Eval({0.5 - kTol - 1e-9, 1.5}, 0);
  // Index 0 decides; the huge loss at index 1 and the extra changes of `a`
  // never get a say.
  EXPECT_EQ(Compare(a, b), 1);
  EXPECT_EQ(Compare(b, a), -1);
}

TEST_F(CompareTest, DifferenceExactlyAtToleranceIsATie) {
  // diff == tolerance is NOT a win (the comparison is strict), so the
  // decision falls through to the change count. The pair 0.02 vs 0.0 makes
  // the difference exactly the tolerance's own double (0.52 - 0.5 would
  // not: it rounds a hair above 0.02).
  const auto a = Eval({kTol, 0.9}, 1);
  const auto b = Eval({0.0, 0.9}, 0);
  EXPECT_EQ(Compare(a, b), -1) << "tied on utilities, b has fewer changes";
  EXPECT_EQ(Compare(b, a), 1);
}

TEST_F(CompareTest, WithinToleranceFallsThroughToLaterIndices) {
  // Index 0 within tolerance either way; index 1 beyond it decides.
  const auto a = Eval({0.50, 0.80}, 5);
  const auto b = Eval({0.51, 0.80 - 2.0 * kTol}, 0);
  EXPECT_EQ(Compare(a, b), 1);
  EXPECT_EQ(Compare(b, a), -1);
}

TEST_F(CompareTest, AsymmetricNearToleranceDiffsDoNotCancel) {
  // a loses a little at index 0 and wins a little at index 1, both within
  // tolerance: the diffs must not accumulate into a decision.
  const auto a = Eval({0.50 - 0.019, 0.80 + 0.019}, 2);
  const auto b = Eval({0.50, 0.80}, 2);
  EXPECT_EQ(Compare(a, b), 0);
  EXPECT_EQ(Compare(b, a), 0);
}

TEST_F(CompareTest, AllTiedDecidedByChangeCount) {
  const auto a = Eval({0.5, 0.9}, 0);
  const auto b = Eval({0.5 + 0.9 * kTol, 0.9 - 0.9 * kTol}, 4);
  EXPECT_EQ(Compare(a, b), 1);
  EXPECT_EQ(Compare(b, a), -1);
  const auto c = Eval({0.5, 0.9}, 4);
  EXPECT_EQ(Compare(b, c), 0) << "same change count: a genuine tie";
}

TEST_F(CompareTest, UtilityFloorEntriesCompareLikeAnyOther) {
  const auto a = Eval({kUtilityFloor, 0.9}, 0);
  const auto b = Eval({kUtilityFloor, 0.9}, 0);
  EXPECT_EQ(Compare(a, b), 0);
  const auto c = Eval({kUtilityFloor + kTol + 1e-9, 0.9}, 9);
  EXPECT_EQ(Compare(c, a), 1) << "escaping the floor beats fewer changes";
}

TEST_F(CompareTest, RejectedEvaluationsCannotBeCompared) {
  auto a = Eval({0.5}, 0);
  const auto b = Eval({0.5}, 0);
  a.rejected_by_bound = true;
  EXPECT_THROW(static_cast<void>(Compare(a, b)), std::logic_error);
}

TEST_F(CompareTest, BoundRejectionAgreesWithCompare) {
  // Whenever Evaluate rejects a candidate against a bound, evaluating the
  // same candidate fully must lose to the bound under Compare — the early
  // exit is a shortcut for Compare's first branch, never a new decision.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SnapshotBuilder b(TinyCluster(2));
    const int jobs = static_cast<int>(rng.UniformInt(1, 4));
    for (int j = 0; j < jobs; ++j) {
      b.AddJob(j + 1, rng.Uniform(1'000.0, 6'000.0),
               rng.Uniform(300.0, 1'000.0), 600.0, 0.0,
               rng.Uniform(2.0, 6.0));
    }
    const PlacementSnapshot snap = b.Build();
    const PlacementEvaluator eval(&snap);
    const PlacementEvaluation incumbent =
        eval.Evaluate(snap.current_placement());

    // Candidate: place the first job alone on node 0.
    PlacementMatrix cand(snap.num_entities(), snap.num_nodes());
    cand.at(0, 0) = 1;
    EvalScratch scratch;
    const PlacementEvaluation bounded = eval.Evaluate(cand, scratch, &incumbent);
    const PlacementEvaluation full = eval.Evaluate(cand, scratch, nullptr);
    if (bounded.rejected_by_bound) {
      EXPECT_EQ(eval.Compare(full, incumbent), -1) << "seed " << seed;
    } else {
      EXPECT_EQ(full.score, bounded.score)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mwp
