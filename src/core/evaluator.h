// Candidate placement evaluation (§4.2 "Evaluating placement decisions").
//
// A candidate placement P is scored in four steps:
//   1. divide node CPU among the placed instances (LoadDistributor);
//   2. advance every placed job by the work it would complete over the next
//      control cycle at its allocation (charging VM boot/resume/migrate
//      latencies first); jobs that finish inside the cycle get the utility
//      of their exact completion time;
//   3. build the hypothetical RPF at t_now + T over all still-incomplete
//      jobs (placed and queued) and read each job's predicted utility under
//      the assumption that the batch workload keeps the aggregate
//      allocation ω_g = Σ_m ω_m of the next cycle;
//   4. transactional utilities come from the queuing model at their
//      allocations.
// The configured FairnessObjective turns the per-entity utilities into the
// placement's score — for the paper's max-min, the utilities sorted
// ascending (the RP vector). Comparison is lexicographic with a tolerance,
// with the number of placement changes as tie-breaker (the paper keeps the
// incumbent when RP vectors tie — Figure 1, S1 cycle 2).
//
// Hot path: with Options::incremental (the default) step 3 assembles the
// hypothetical RPF from per-job columns memoized in a HypColumnCache
// instead of recomputing the W/V matrix, and all per-call buffers live in
// an EvalScratch. Step 2 is memoized per job in the scratch: a job's
// cycle-end state depends only on the snapshot, its allocation and its
// running node, so a job whose allocation bits and node repeat the last
// call's keeps the state and column it had (the cache's Get runs exactly
// when the column memo alone would miss). Both paths funnel through the
// same column / interpolation code, so incremental evaluation is
// bit-for-bit identical to the from-scratch path (property-tested). Evaluate also accepts an optional
// reject bound: a candidate the objective proves loses against the bound's
// score at its first index (max-min: the minimum biased utility) is
// rejected before the score and change list are materialized — exactly the
// outcome Compare would reach, at a fraction of the cost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/placement.h"
#include "core/evaluation_cache.h"
#include "core/fairness_objective.h"
#include "core/hypothetical_rpf.h"
#include "core/incumbent_index.h"
#include "core/load_distributor.h"
#include "core/snapshot.h"

namespace mwp {

struct PlacementEvaluation {
  DistributionResult distribution;
  /// Final predicted utility per entity (jobs: hypothetical at t+T or exact
  /// completion utility; transactional apps: queuing-model utility).
  std::vector<Utility> entity_utilities;
  /// The fairness objective's score of entity_utilities, compared
  /// lexicographically ascending by Compare; the reject bound reads it too.
  std::vector<double> score;
  /// Reconfiguration actions relative to the snapshot's current placement.
  std::vector<PlacementChange> changes;
  /// Aggregate CPU given to batch jobs (ω_g) and to transactional apps.
  MHz batch_allocation = 0.0;
  MHz tx_allocation = 0.0;
  /// Per job entity: the hypothetical future speed ω_m interpolated from the
  /// W matrix (jobs completing within the cycle carry their current
  /// allocation). Indexed like the snapshot's jobs.
  std::vector<MHz> job_future_speeds;
  /// True when the evaluation was cut short by the reject bound: Compare
  /// against the bound would return -1. score and changes are not
  /// populated in that case.
  bool rejected_by_bound = false;
};

/// The relative-performance vector: `entity_utilities` sorted ascending.
/// Traces record it (rp_before/rp_after) and replay compares it; it is not
/// computed per candidate.
std::vector<Utility> RpVector(std::vector<Utility> entity_utilities);

class PlacementEvaluator {
 public:
  struct Options {
    /// Score vectors whose elements all differ by less than this are
    /// considered tied (then fewer changes wins). The default exceeds
    /// one control cycle's worth of goal decay for the paper's Experiment
    /// One jobs (600 s / 47,520 s ≈ 0.0126), which is what keeps the
    /// algorithm from churning suspend/resume rotations among identical
    /// jobs under overload — the "no placement changes" behaviour of §5.1.
    double tie_tolerance = 0.02;
    LoadDistributor::Options distributor;
    /// true: memoize per-job hypothetical-RPF columns across Evaluate calls
    /// and reuse scratch buffers. false: rebuild everything from scratch
    /// each call (the reference path the equivalence tests compare
    /// against). Results are bit-for-bit identical either way.
    bool incremental = true;
    /// The fairness objective scoring candidate placements (default: the
    /// paper's lexicographic max-min).
    FairnessObjectiveConfig objective;

    /// Throws std::logic_error (MWP_CHECK) on an out-of-range field,
    /// including the distributor's and the objective's.
    void Validate() const;
  };

  explicit PlacementEvaluator(const PlacementSnapshot* snapshot);
  PlacementEvaluator(const PlacementSnapshot* snapshot, Options options);

  PlacementEvaluation Evaluate(const PlacementMatrix& p) const;

  /// As above with caller-provided scratch (one per thread for concurrent
  /// evaluation) and an optional reject bound: when `reject_bound` is
  /// non-null and the objective proves the candidate loses against
  /// reject_bound->score by more than the tie tolerance, the returned
  /// evaluation has rejected_by_bound set and omits the score and change
  /// list.
  PlacementEvaluation Evaluate(const PlacementMatrix& p, EvalScratch& scratch,
                               const PlacementEvaluation* reject_bound) const;

  /// As above for a search candidate `p`: `index`'s incumbent with `change`
  /// applied, `change.feasible` set by IsFeasibleCandidate. The distributor
  /// and the job loop take each job's node from the index, and the change
  /// list is diffed over the rows that can differ from the current
  /// placement; the result is the one the overload above returns. With
  /// incremental off the overload above runs instead (the reference).
  PlacementEvaluation Evaluate(const PlacementMatrix& p,
                               const IncumbentIndex& index,
                               const CandidateChange& change,
                               EvalScratch& scratch,
                               const PlacementEvaluation* reject_bound) const;

  /// IsFeasible(candidate) for `index`'s incumbent with `change` applied:
  /// computed from the change (PlacementSnapshot::IsFeasibleChange), or by
  /// the full check with incremental off.
  bool IsFeasibleCandidate(const PlacementMatrix& candidate,
                           const IncumbentIndex& index,
                           const CandidateChange& change) const;

  /// Lexicographic comparison of score vectors with tolerance: returns +1
  /// when `a` is strictly better, -1 when worse, 0 when tied. On score
  /// ties, the evaluation with fewer changes is better.
  int Compare(const PlacementEvaluation& a, const PlacementEvaluation& b) const;

  const PlacementSnapshot& snapshot() const { return *snapshot_; }
  const Options& options() const { return options_; }

  /// The fairness objective. Callers ranking per-entity need (wish order,
  /// rebalancer worst-job picks) consult EntityBias through this.
  const FairnessObjective& objective() const { return *objective_; }

  /// Column-cache statistics (zero when incremental is off).
  std::size_t cache_hits() const;
  std::size_t cache_misses() const;

 private:
  const PlacementSnapshot* snapshot_;
  Options options_;
  /// NewScratchOwnerId(): tells a scratch whether its column memo is this
  /// evaluator's.
  std::uint64_t id_ = NewScratchOwnerId();
  LoadDistributor distributor_;
  /// The hypothetical RPF's sampling grid: HypotheticalRpf::DefaultGrid(),
  /// the distributor's too.
  std::vector<double> grid_ = HypotheticalRpf::DefaultGrid();
  /// Change-kind lookups, fixed per snapshot: removals of incomplete jobs
  /// are suspensions; additions of previously suspended jobs are resumes.
  std::vector<bool> removal_is_suspend_;
  std::vector<bool> addition_is_resume_;
  /// Memoized hypothetical columns (null when incremental is off). The
  /// cache is behaviourally transparent, hence usable from const Evaluate.
  std::unique_ptr<HypColumnCache> column_cache_;
  std::unique_ptr<FairnessObjective> objective_;
  /// Scratch for the one-argument Evaluate overload.
  mutable EvalScratch scratch_;

  /// Steps 2-4 of the scoring on a computed distribution. `diff_rows`
  /// lists the rows where `p` can differ from the current placement, or is
  /// null to diff every row.
  PlacementEvaluation Score(const PlacementMatrix& p,
                            DistributionResult distribution,
                            const std::vector<int>* diff_rows,
                            EvalScratch& scratch,
                            const PlacementEvaluation* reject_bound) const;
};

}  // namespace mwp
