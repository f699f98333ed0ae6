#include "core/annealing_optimizer.h"

#include <gtest/gtest.h>

#include "core/placement_optimizer.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

AnnealingPlacementOptimizer::Options FastOptions(
    AnnealingPlacementOptimizer::Objective objective) {
  AnnealingPlacementOptimizer::Options opts;
  opts.objective = objective;
  opts.iterations = 1'500;
  opts.seed = 3;
  return opts;
}

TEST(AnnealingOptimizerTest, PlacesTheOnlyJob) {
  SnapshotBuilder b(TinyCluster(1));
  b.AddJob(1, 2'000.0, 500.0, 500.0, 0.0, 5.0);
  const PlacementSnapshot snap = b.Build();
  AnnealingPlacementOptimizer opt(
      &snap, FastOptions(AnnealingPlacementOptimizer::Objective::kSumUtility));
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.InstanceCount(0), 1);
  EXPECT_GT(result.score, 0.0);
  EXPECT_GT(result.accepted_moves, 0);
}

TEST(AnnealingOptimizerTest, ResultIsAlwaysFeasible) {
  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    SnapshotBuilder b(TinyCluster(2));
    const int jobs = static_cast<int>(rng.UniformInt(2, 6));
    for (int j = 0; j < jobs; ++j) {
      b.AddJob(j + 1, rng.Uniform(500.0, 10'000.0), rng.Uniform(200.0, 900.0),
               rng.Uniform(400.0, 1'100.0), 0.0, rng.Uniform(1.2, 5.0));
    }
    const PlacementSnapshot snap = b.Build();
    AnnealingPlacementOptimizer opt(
        &snap,
        FastOptions(AnnealingPlacementOptimizer::Objective::kSumUtility));
    const auto result = opt.Optimize();
    EXPECT_TRUE(snap.IsFeasible(result.placement)) << "trial " << trial;
  }
}

TEST(AnnealingOptimizerTest, ScoreNeverBelowIncumbent) {
  SnapshotBuilder b(TinyCluster(2));
  for (int j = 0; j < 4; ++j) {
    b.AddJob(j + 1, 2'000.0, 500.0, 800.0, 0.0, 3.0);
  }
  const PlacementSnapshot snap = b.Build();
  AnnealingPlacementOptimizer opt(
      &snap, FastOptions(AnnealingPlacementOptimizer::Objective::kMinUtility));
  PlacementEvaluator evaluator(&snap);
  const double incumbent =
      evaluator.Evaluate(snap.current_placement()).score.front();
  const auto result = opt.Optimize();
  EXPECT_GE(result.score, incumbent);
}

TEST(AnnealingOptimizerTest, SumObjectiveCanStarveTheNeedy) {
  // The paper's fairness argument (§2): maximizing total utility can starve
  // the worst-off application. One slot (memory admits one job); an easy
  // job (huge slack) and a needy one (tight goal). Sum-maximization is
  // indifferent-to-hostile toward the needy job, while the APC's max-min
  // objective places it.
  auto build = [] {
    SnapshotBuilder b(TinyCluster(1));
    b.AddJob(1, 2'000.0, 1'000.0, 1'500.0, 0.0, 20.0);  // relaxed
    b.AddJob(2, 2'000.0, 1'000.0, 1'500.0, 0.0, 2.2);   // tight
    return b;
  };
  auto b1 = build();
  const PlacementSnapshot snap1 = b1.Build();
  PlacementOptimizer apc(&snap1);
  const auto apc_result = apc.Optimize();
  EXPECT_EQ(apc_result.placement.InstanceCount(1), 1)
      << "max-min places the needy job";

  // Annealing on the sum objective: compare the two single-job placements
  // directly — the sum score of placing the relaxed job is at least as high
  // (the relaxed job's queued utility decays far slower), so fairness is
  // not implied by the objective.
  auto b2 = build();
  const PlacementSnapshot snap2 = b2.Build();
  PlacementEvaluator evaluator(&snap2);
  PlacementMatrix place_relaxed(2, 1);
  place_relaxed.at(0, 0) = 1;
  PlacementMatrix place_needy(2, 1);
  place_needy.at(1, 0) = 1;
  auto sum = [&](const PlacementEvaluation& e) {
    double s = 0.0;
    for (Utility u : e.entity_utilities) s += u;
    return s;
  };
  const double sum_relaxed = sum(evaluator.Evaluate(place_relaxed));
  const double sum_needy = sum(evaluator.Evaluate(place_needy));
  const auto eval_relaxed = evaluator.Evaluate(place_relaxed);
  const auto eval_needy = evaluator.Evaluate(place_needy);
  // Max-min prefers placing the needy job...
  EXPECT_GT(eval_needy.score.front(), eval_relaxed.score.front());
  // ...while the sum objective sees them as comparable (within the decay of
  // one cycle), so it provides no starvation protection.
  EXPECT_NEAR(sum_relaxed, sum_needy, 0.5);
}

TEST(AnnealingOptimizerTest, DeterministicGivenSeed) {
  SnapshotBuilder b(TinyCluster(2));
  for (int j = 0; j < 3; ++j) {
    b.AddJob(j + 1, 2'000.0, 500.0, 800.0, 0.0, 3.0);
  }
  const PlacementSnapshot snap = b.Build();
  const auto opts =
      FastOptions(AnnealingPlacementOptimizer::Objective::kSumUtility);
  AnnealingPlacementOptimizer a(&snap, opts), b2(&snap, opts);
  const auto ra = a.Optimize();
  const auto rb = b2.Optimize();
  EXPECT_EQ(ra.placement, rb.placement);
  EXPECT_DOUBLE_EQ(ra.score, rb.score);
}

TEST(AnnealingOptimizerTest, HonoursConstraints) {
  SnapshotBuilder b(TinyCluster(2));
  b.AddJob(1, 2'000.0, 500.0, 500.0, 0.0, 3.0);
  PlacementSnapshot snap = b.Build();
  PlacementConstraints c;
  c.PinTo(1, {1});
  snap.set_constraints(c);
  AnnealingPlacementOptimizer opt(
      &snap, FastOptions(AnnealingPlacementOptimizer::Objective::kSumUtility));
  const auto result = opt.Optimize();
  EXPECT_EQ(result.placement.at(0, 0), 0);
}

}  // namespace
}  // namespace mwp
