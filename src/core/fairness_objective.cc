#include "core/fairness_objective.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/snapshot.h"

namespace mwp {
namespace {

class MaxMinObjective final : public FairnessObjective {
 public:
  MaxMinObjective(const FairnessObjectiveConfig& config,
                  const PlacementSnapshot& snapshot)
      : bias_(static_cast<std::size_t>(snapshot.num_entities()), 0.0) {
    const std::vector<double>& credits = snapshot.fairness_credits();
    if (config.kind != FairnessObjectiveKind::kKarma || credits.empty()) {
      return;
    }
    MWP_CHECK(credits.size() == bias_.size());
    for (std::size_t e = 0; e < credits.size(); ++e) {
      bias_[e] = KarmaBias(config, credits[e]);
    }
  }

  void Score(const std::vector<Utility>& entity_utilities,
             std::vector<double>& out) const override {
    out.resize(entity_utilities.size());
    for (std::size_t e = 0; e < entity_utilities.size(); ++e) {
      out[e] = entity_utilities[e] + bias_[e];
    }
    std::sort(out.begin(), out.end());
  }

  bool RejectedByBound(const std::vector<Utility>& entity_utilities,
                       const std::vector<double>& bound_score,
                       double tie_tolerance) const override {
    // The candidate's minimum biased utility is its score's index 0; losing
    // there by more than the tolerance is Compare's first -1 branch, and no
    // later index can save the candidate.
    double cand_min = entity_utilities[0] + bias_[0];
    for (std::size_t e = 1; e < entity_utilities.size(); ++e) {
      cand_min = std::min(cand_min, entity_utilities[e] + bias_[e]);
    }
    return cand_min - bound_score[0] < -tie_tolerance;
  }

  double EntityBias(int entity) const override {
    return bias_[static_cast<std::size_t>(entity)];
  }

 private:
  /// Per-entity utility bias (non-positive), frozen at construction from the
  /// snapshot's credit vector — one snapshot, one consistent view.
  std::vector<double> bias_;
};

class ProportionalFairnessObjective final : public FairnessObjective {
 public:
  explicit ProportionalFairnessObjective(const FairnessObjectiveConfig& config)
      : epsilon_(config.pf_epsilon) {}

  void Score(const std::vector<Utility>& entity_utilities,
             std::vector<double>& out) const override {
    out.assign(1, SumLogUtility(entity_utilities));
  }

  bool RejectedByBound(const std::vector<Utility>& entity_utilities,
                       const std::vector<double>& bound_score,
                       double tie_tolerance) const override {
    // Every entity utility is already known when the bound is consulted, so
    // the single-element score is computed exactly — the "early exit" saves
    // only the change-list diff and the sort, never accuracy.
    return SumLogUtility(entity_utilities) - bound_score[0] < -tie_tolerance;
  }

 private:
  double SumLogUtility(const std::vector<Utility>& entity_utilities) const {
    double sum = 0.0;
    for (const Utility u : entity_utilities) {
      // Utilities live in [kUtilityFloor, 1]; shift to (0, ...] so the log
      // is finite, with epsilon guarding the floor itself.
      sum += std::log(u - kUtilityFloor + epsilon_);
    }
    return sum;
  }

  double epsilon_;
};

}  // namespace

void FairnessObjectiveConfig::Validate() const {
  MWP_CHECK_MSG(ValidFairnessObjectiveId(static_cast<int>(kind)),
                "unknown fairness objective kind");
  if (kind == FairnessObjectiveKind::kKarma) {
    MWP_CHECK(karma_cap > 0.0);
    MWP_CHECK(karma_weight >= 0.0);
  } else if (kind == FairnessObjectiveKind::kProportionalFairness) {
    MWP_CHECK(pf_epsilon > 0.0);
  }
}

double KarmaBias(const FairnessObjectiveConfig& config, double credits) {
  return -config.karma_weight * std::clamp(credits, 0.0, config.karma_cap) /
         config.karma_cap;
}

double FairnessObjective::EntityBias(int /*entity*/) const { return 0.0; }

std::unique_ptr<FairnessObjective> MakeFairnessObjective(
    const FairnessObjectiveConfig& config, const PlacementSnapshot& snapshot) {
  config.Validate();
  if (config.kind == FairnessObjectiveKind::kProportionalFairness) {
    return std::make_unique<ProportionalFairnessObjective>(config);
  }
  return std::make_unique<MaxMinObjective>(config, snapshot);
}

const char* FairnessObjectiveName(FairnessObjectiveKind kind) {
  switch (kind) {
    case FairnessObjectiveKind::kMaxMin:
      return "maxmin";
    case FairnessObjectiveKind::kKarma:
      return "karma";
    case FairnessObjectiveKind::kProportionalFairness:
      return "pf";
  }
  return "unknown";
}

std::optional<FairnessObjectiveKind> ParseFairnessObjective(
    std::string_view name) {
  if (name == "maxmin" || name == "max-min") {
    return FairnessObjectiveKind::kMaxMin;
  }
  if (name == "karma") return FairnessObjectiveKind::kKarma;
  if (name == "pf" || name == "proportional") {
    return FairnessObjectiveKind::kProportionalFairness;
  }
  return std::nullopt;
}

bool ValidFairnessObjectiveId(int id) {
  return id >= static_cast<int>(FairnessObjectiveKind::kMaxMin) &&
         id <= static_cast<int>(FairnessObjectiveKind::kProportionalFairness);
}

}  // namespace mwp
