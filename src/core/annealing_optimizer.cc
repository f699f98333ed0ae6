#include "core/annealing_optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mwp {

AnnealingPlacementOptimizer::AnnealingPlacementOptimizer(
    const PlacementSnapshot* snapshot, Options options)
    : snapshot_(snapshot),
      options_(std::move(options)),
      evaluator_(snapshot, options_.evaluator) {
  MWP_CHECK(snapshot_ != nullptr);
  MWP_CHECK(options_.iterations >= 1);
  MWP_CHECK(options_.initial_temperature > 0.0);
  MWP_CHECK(options_.cooling > 0.0 && options_.cooling < 1.0);
}

double AnnealingPlacementOptimizer::Score(
    const PlacementEvaluation& eval) const {
  switch (options_.objective) {
    case Objective::kSumUtility: {
      double sum = 0.0;
      for (Utility u : eval.entity_utilities) sum += u;
      return sum;
    }
    case Objective::kMinUtility:
      return eval.entity_utilities.empty()
                 ? 0.0
                 : *std::min_element(eval.entity_utilities.begin(),
                                     eval.entity_utilities.end());
  }
  return 0.0;
}

bool AnnealingPlacementOptimizer::ProposeMove(PlacementMatrix& p,
                                              Rng& rng) const {
  const PlacementSnapshot& snap = *snapshot_;
  if (snap.num_entities() == 0 || snap.num_nodes() == 0) return false;
  // A handful of attempts to find any applicable random move.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int entity =
        static_cast<int>(rng.UniformInt(0, snap.num_entities() - 1));
    const int node = static_cast<int>(rng.UniformInt(0, snap.num_nodes() - 1));
    const int placed = p.InstanceCount(entity);
    const double dice = rng.Uniform01();
    if (placed == 0 || (dice < 0.4 && p.at(entity, node) == 0)) {
      // Start / add an instance on `node`.
      PlacementMatrix candidate = p;
      candidate.at(entity, node) += 1;
      if (!snap.IsFeasible(candidate)) continue;
      p = std::move(candidate);
      return true;
    }
    if (dice < 0.7) {
      // Remove one instance.
      const std::vector<int> nodes = p.NodesOf(entity);
      const int victim = nodes[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
      p.at(entity, victim) -= 1;
      return true;
    }
    // Migrate one instance to `node`.
    const std::vector<int> nodes = p.NodesOf(entity);
    const int from = nodes[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    if (from == node || p.at(entity, node) > 0) continue;
    PlacementMatrix candidate = p;
    candidate.at(entity, from) -= 1;
    candidate.at(entity, node) += 1;
    if (!snap.IsFeasible(candidate)) continue;
    p = std::move(candidate);
    return true;
  }
  return false;
}

AnnealingPlacementOptimizer::Result AnnealingPlacementOptimizer::Optimize()
    const {
  const PlacementSnapshot& snap = *snapshot_;
  Rng rng(options_.seed);

  Result result;
  result.placement = snap.current_placement();
  result.evaluation = evaluator_.Evaluate(result.placement);
  result.evaluations = 1;
  result.score = Score(result.evaluation);

  PlacementMatrix current = result.placement;
  PlacementEvaluation current_eval = result.evaluation;
  double current_score = result.score;
  double temperature = options_.initial_temperature;

  for (int iter = 0; iter < options_.iterations; ++iter) {
    PlacementMatrix candidate = current;
    if (!ProposeMove(candidate, rng)) break;
    PlacementEvaluation cand_eval = evaluator_.Evaluate(candidate);
    ++result.evaluations;
    const double cand_score = Score(cand_eval);
    const double delta = cand_score - current_score;
    if (delta >= 0.0 ||
        rng.Uniform01() < std::exp(delta / std::max(temperature, 1e-9))) {
      current = std::move(candidate);
      current_eval = std::move(cand_eval);
      current_score = cand_score;
      ++result.accepted_moves;
      if (current_score > result.score) {
        result.placement = current;
        result.evaluation = current_eval;
        result.score = current_score;
      }
    }
    temperature *= options_.cooling;
  }
  return result;
}

}  // namespace mwp
