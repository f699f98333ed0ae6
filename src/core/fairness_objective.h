// Fairness objectives for placement evaluation (§4.2 and its extensions).
//
// The paper's controller optimizes lexicographic max-min over per-entity
// relative performance. That objective and its alternatives all plug in
// behind this interface, which shapes three decisions:
//
//   1. Score(...)        — the vector compared lexicographically (ascending,
//                          with the evaluator's tie tolerance and the
//                          fewer-changes tie-break);
//   2. RejectedByBound() — the early exit for Compare's first losing index,
//                          so the optimizer's reject bound works under any
//                          objective;
//   3. EntityBias()      — a per-entity additive bias on utility used where
//                          the optimizer *ranks need* (wish-list order, the
//                          sharded rebalancer's worst-job pick) rather than
//                          scores whole placements.
//
// Two implementations ship:
//
//   MaxMinObjective — the paper's objective over biased utilities. The
//   score is the ascending sort of u + bias; the reject bound compares
//   minimum biased utilities, the score's index 0. kMaxMin leaves every
//   bias at zero, so the score is the sorted relative-performance vector
//   itself. kKarma adds temporal fairness via per-tenant credits: a tenant
//   that received less than its fair share of cluster CPU in past cycles
//   carries credits (earned by the controller's ledger, see ApcController),
//   and KarmaBias turns them into a negative bias, so max-min lifts
//   chronically shortchanged tenants first. With zero credits Karma decides
//   exactly like max-min.
//
//   ProportionalFairnessObjective — Bonald & Roberts: maximize
//   Σ_e log(u_e - kUtilityFloor + pf_epsilon). The score is a single
//   element, so lexicographic comparison degenerates to comparing the sums
//   (tie tolerance, then fewer changes). The bound check is exact: all
//   entity utilities exist when the reject bound is consulted, so the
//   candidate's full score is computed and compared directly.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace mwp {

class PlacementSnapshot;

/// Wire-stable ids: serialized into schema-v2 traces ("objective" input
/// option) and parsed back by the replay harness. Do not renumber.
enum class FairnessObjectiveKind : int {
  kMaxMin = 0,
  kKarma = 1,
  kProportionalFairness = 2,
};

struct FairnessObjectiveConfig {
  FairnessObjectiveKind kind = FairnessObjectiveKind::kMaxMin;
  /// Karma: effective utility = u + KarmaBias(credits), so a tenant at the
  /// credit cap looks karma_weight worse than its instantaneous RP. Must
  /// exceed the evaluator's tie tolerance to ever change a decision.
  double karma_weight = 0.5;
  /// Karma: ledger clamp — credits live in [0, karma_cap].
  double karma_cap = 8.0;
  /// Karma: credits earned per cycle per unit of normalized shortfall
  /// (fair_share - allocation) / fair_share.
  double karma_earn_rate = 1.0;
  /// Proportional fairness: log(u - kUtilityFloor + pf_epsilon) keeps the
  /// log finite for entities sitting exactly on the utility floor.
  double pf_epsilon = 1e-6;

  /// Throws std::logic_error (MWP_CHECK) on an unknown kind or an
  /// out-of-range parameter of the configured kind.
  void Validate() const;

  bool operator==(const FairnessObjectiveConfig&) const = default;
};

/// Karma's utility bias for an entity holding `credits`:
/// -karma_weight * clamp(credits, 0, karma_cap) / karma_cap. High credits
/// mean the tenant has been shortchanged, so it looks needier.
double KarmaBias(const FairnessObjectiveConfig& config, double credits);

class FairnessObjective {
 public:
  virtual ~FairnessObjective() = default;

  /// Fill `out` with the placement's score vector. Vectors are compared
  /// lexicographically ascending with the evaluator's tie tolerance; on a
  /// full tie, fewer placement changes wins (same tie-break as max-min).
  virtual void Score(const std::vector<Utility>& entity_utilities,
                     std::vector<double>& out) const = 0;

  /// True when a candidate with these (at least one) entity utilities is
  /// certain to lose against `bound_score` at the first differing index by
  /// more than `tie_tolerance`. Must never reject a candidate Compare would
  /// not.
  virtual bool RejectedByBound(const std::vector<Utility>& entity_utilities,
                               const std::vector<double>& bound_score,
                               double tie_tolerance) const = 0;

  /// Additive bias applied to `entity`'s utility wherever the optimizer
  /// ranks per-entity need (ascending: more negative = needier). Zero for
  /// objectives without per-entity state.
  virtual double EntityBias(int entity) const;
};

/// Build the objective for `config` over `snapshot` (Karma reads the
/// snapshot's fairness credits at construction). Never null; validates
/// `config` first.
std::unique_ptr<FairnessObjective> MakeFairnessObjective(
    const FairnessObjectiveConfig& config, const PlacementSnapshot& snapshot);

/// Canonical names for --objective= flags and logs: "maxmin", "karma", "pf".
const char* FairnessObjectiveName(FairnessObjectiveKind kind);
std::optional<FairnessObjectiveKind> ParseFairnessObjective(
    std::string_view name);
/// True for the wire ids carried by schema-v2 traces (0, 1, 2).
bool ValidFairnessObjectiveId(int id);

}  // namespace mwp
