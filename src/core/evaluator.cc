#include "core/evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace mwp {
namespace {

/// A job's state at the end of the next cycle: whether it completes inside
/// the cycle, with the utility of its exact finish time, or else its
/// hypothetical-RPF state (work done, delay before it could execute).
struct CycleEndState {
  bool completes = false;
  Utility completion_utility = kUtilityFloor;
  HypotheticalJobState state;
};

/// Advances `jv` through the next cycle at allocation `alloc` on `node`
/// (kInvalidNode: the job does not run), charging VM latencies first.
CycleEndState AdvanceToCycleEnd(const PlacementSnapshot& snap,
                                const JobView& jv, MHz alloc, int node,
                                Seconds cycle_end) {
  CycleEndState end;
  HypotheticalJobState& s = end.state;
  s.profile = jv.profile;
  s.goal = jv.goal;
  s.work_done = jv.work_done;
  if (node == kInvalidNode) {
    // Not placed (or paused): if placed next cycle it pays its placement
    // latency then.
    s.start_delay = jv.place_overhead;
    return end;
  }
  const Seconds exec_start = JobExecStart(snap, jv, node);
  if (!(exec_start < cycle_end)) {
    s.start_delay = exec_start - cycle_end;
    return end;
  }
  s.work_done =
      jv.profile->WorkAfterRunning(jv.work_done, alloc, cycle_end - exec_start);
  if (jv.profile->RemainingWork(s.work_done) <= kEpsilon) {
    const Seconds finish =
        exec_start + jv.profile->RemainingTimeAtSpeed(jv.work_done, alloc);
    end.completes = true;
    end.completion_utility =
        (jv.goal.completion_goal - finish) / jv.goal.relative_goal();
  }
  return end;
}

}  // namespace

std::vector<Utility> RpVector(std::vector<Utility> entity_utilities) {
  std::sort(entity_utilities.begin(), entity_utilities.end());
  return entity_utilities;
}

void PlacementEvaluator::Options::Validate() const {
  MWP_CHECK(tie_tolerance >= 0.0);
  distributor.Validate();
  objective.Validate();
}

PlacementEvaluator::PlacementEvaluator(const PlacementSnapshot* snapshot)
    : PlacementEvaluator(snapshot, Options{}) {}

PlacementEvaluator::PlacementEvaluator(const PlacementSnapshot* snapshot,
                                       Options options)
    : snapshot_(snapshot),
      options_(std::move(options)),
      distributor_(snapshot, options_.distributor) {
  MWP_CHECK(snapshot_ != nullptr);
  options_.Validate();

  const PlacementSnapshot& snap = *snapshot_;
  removal_is_suspend_.assign(static_cast<std::size_t>(snap.num_entities()),
                             false);
  addition_is_resume_.assign(static_cast<std::size_t>(snap.num_entities()),
                             false);
  for (int j = 0; j < snap.num_jobs(); ++j) {
    removal_is_suspend_[static_cast<std::size_t>(snap.EntityOfJob(j))] = true;
    addition_is_resume_[static_cast<std::size_t>(snap.EntityOfJob(j))] =
        snap.job(j).status == JobStatus::kSuspended;
  }

  if (options_.incremental) {
    column_cache_ = std::make_unique<HypColumnCache>(
        snap.now() + snap.control_cycle(), grid_, snap.num_jobs());
  }

  objective_ = MakeFairnessObjective(options_.objective, snap);
}

PlacementEvaluation PlacementEvaluator::Evaluate(
    const PlacementMatrix& p) const {
  return Evaluate(p, scratch_, nullptr);
}

PlacementEvaluation PlacementEvaluator::Evaluate(
    const PlacementMatrix& p, EvalScratch& scratch,
    const PlacementEvaluation* reject_bound) const {
  return Score(p, distributor_.Distribute(p, scratch.distributor), nullptr,
               scratch, reject_bound);
}

PlacementEvaluation PlacementEvaluator::Evaluate(
    const PlacementMatrix& p, const IncumbentIndex& index,
    const CandidateChange& change, EvalScratch& scratch,
    const PlacementEvaluation* reject_bound) const {
  if (!options_.incremental) return Evaluate(p, scratch, reject_bound);
  index.CandidateDiffRows(change, scratch.diff_rows);
  return Score(p,
               distributor_.Distribute(p, index, change, scratch.distributor),
               &scratch.diff_rows, scratch, reject_bound);
}

bool PlacementEvaluator::IsFeasibleCandidate(
    const PlacementMatrix& candidate, const IncumbentIndex& index,
    const CandidateChange& change) const {
  if (!options_.incremental) return snapshot_->IsFeasible(candidate);
  return snapshot_->IsFeasibleChange(candidate, index.feasible(), change.rows,
                                     change.nodes);
}

PlacementEvaluation PlacementEvaluator::Score(
    const PlacementMatrix& p, DistributionResult distribution,
    const std::vector<int>* diff_rows, EvalScratch& scratch,
    const PlacementEvaluation* reject_bound) const {
  const PlacementSnapshot& snap = *snapshot_;
  PlacementEvaluation eval;
  eval.distribution = std::move(distribution);
  eval.entity_utilities.assign(static_cast<std::size_t>(snap.num_entities()),
                               kUtilityFloor);
  eval.job_future_speeds.assign(static_cast<std::size_t>(snap.num_jobs()), 0.0);

  const Seconds cycle_end = snap.now() + snap.control_cycle();
  if (column_cache_ != nullptr) {
    if (scratch.owner_id != id_) {
      // Scratch last used with a different evaluator: its memo points
      // into that evaluator's column cache.
      scratch.owner_id = id_;
      scratch.last_columns.clear();
    }
    if (scratch.last_columns.size() !=
        static_cast<std::size_t>(snap.num_jobs())) {
      scratch.last_columns.assign(static_cast<std::size_t>(snap.num_jobs()),
                                  {});
    }
  }

  // Advance each job through the next cycle; collect still-incomplete jobs
  // for the hypothetical RPF evaluated at cycle end: their columns from the
  // cache, or their states for the from-scratch path.
  std::vector<HypotheticalJobState>& hyp_jobs = scratch.hyp_jobs;
  std::vector<int>& hyp_index = scratch.hyp_index;  // job index per hyp entry
  std::vector<const HypotheticalRpf::Column*>& cols = scratch.columns;
  hyp_jobs.clear();
  hyp_index.clear();
  cols.clear();
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const JobView& jv = snap.job(j);
    const auto entity = static_cast<std::size_t>(snap.EntityOfJob(j));
    const MHz alloc = eval.distribution.totals[entity];
    eval.batch_allocation += alloc;
    const int node =
        eval.distribution.placed[entity] && alloc > 0.0
            ? eval.distribution.job_nodes[static_cast<std::size_t>(j)]
            : kInvalidNode;

    if (column_cache_ == nullptr) {
      const CycleEndState end =
          AdvanceToCycleEnd(snap, jv, alloc, node, cycle_end);
      if (end.completes) {
        eval.entity_utilities[entity] = end.completion_utility;
        eval.job_future_speeds[static_cast<std::size_t>(j)] = alloc;
        continue;
      }
      hyp_jobs.push_back(end.state);
      hyp_index.push_back(j);
      continue;
    }

    // A job whose allocation and node repeat its memo's keeps its state,
    // and then its column too.
    EvalScratch::ColumnMemo& memo =
        scratch.last_columns[static_cast<std::size_t>(j)];
    const auto alloc_bits = std::bit_cast<std::uint64_t>(alloc);
    if (!memo.has_state || memo.alloc_bits != alloc_bits || memo.node != node) {
      const CycleEndState end =
          AdvanceToCycleEnd(snap, jv, alloc, node, cycle_end);
      memo.has_state = true;
      memo.alloc_bits = alloc_bits;
      memo.node = node;
      memo.completes = end.completes;
      memo.completion_utility = end.completion_utility;
      const auto wb = std::bit_cast<std::uint64_t>(end.state.work_done);
      const auto db = std::bit_cast<std::uint64_t>(end.state.start_delay);
      if (!end.completes && (memo.col == nullptr || memo.work_bits != wb ||
                             memo.delay_bits != db)) {
        memo.work_bits = wb;
        memo.delay_bits = db;
        memo.col = column_cache_->Get(j, end.state);
      }
    }
    if (memo.completes) {
      eval.entity_utilities[entity] = memo.completion_utility;
      eval.job_future_speeds[static_cast<std::size_t>(j)] = alloc;
      continue;
    }
    cols.push_back(memo.col);
    hyp_index.push_back(j);
  }

  if (!cols.empty()) {
    // Assemble the hypothetical RPF from memoized per-job columns; the
    // interpolation runs through the same EvaluateColumns as the
    // from-scratch constructor path.
    scratch.row_sums.assign(grid_.size(), 0.0);
    HypotheticalRpf::AccumulateRowSums(cols, scratch.row_sums);
    scratch.outcomes.resize(cols.size());
    HypotheticalRpf::EvaluateColumns(cols, scratch.row_sums,
                                     eval.batch_allocation, scratch.outcomes);
    for (std::size_t k = 0; k < scratch.outcomes.size(); ++k) {
      const int entity = snap.EntityOfJob(hyp_index[k]);
      eval.entity_utilities[static_cast<std::size_t>(entity)] =
          scratch.outcomes[k].utility;
      eval.job_future_speeds[static_cast<std::size_t>(hyp_index[k])] =
          scratch.outcomes[k].speed;
    }
  } else if (!hyp_jobs.empty()) {
    const HypotheticalRpf hyp(
        std::vector<HypotheticalJobState>(hyp_jobs.begin(), hyp_jobs.end()),
        cycle_end, grid_);
    const auto outcomes = hyp.Evaluate(eval.batch_allocation);
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      const int entity = snap.EntityOfJob(hyp_index[k]);
      eval.entity_utilities[static_cast<std::size_t>(entity)] =
          outcomes[k].utility;
      eval.job_future_speeds[static_cast<std::size_t>(hyp_index[k])] =
          outcomes[k].speed;
    }
  }

  for (int w = 0; w < snap.num_tx(); ++w) {
    const int entity = snap.EntityOfTx(w);
    eval.tx_allocation +=
        eval.distribution.totals[static_cast<std::size_t>(entity)];
    eval.entity_utilities[static_cast<std::size_t>(entity)] =
        eval.distribution.placed[static_cast<std::size_t>(entity)]
            ? eval.distribution.utilities[static_cast<std::size_t>(entity)]
            : kUtilityFloor;
    if (snap.tx(w).arrival_rate <= 1e-12) {
      // A quiesced application is satisfied whether placed or not.
      eval.entity_utilities[static_cast<std::size_t>(entity)] = 1.0;
    }
  }

  if (reject_bound != nullptr && !eval.entity_utilities.empty() &&
      !reject_bound->score.empty() &&
      objective_->RejectedByBound(eval.entity_utilities, reject_bound->score,
                                  options_.tie_tolerance)) {
    // Compare against the bound would return -1 whatever the later indices
    // hold, so skip materializing the score and the change list.
    eval.rejected_by_bound = true;
    return eval;
  }

  eval.changes =
      diff_rows != nullptr
          ? DiffPlacements(snap.current_placement(), p, *diff_rows,
                           removal_is_suspend_, addition_is_resume_)
          : DiffPlacements(snap.current_placement(), p, removal_is_suspend_,
                           addition_is_resume_);
  objective_->Score(eval.entity_utilities, eval.score);
  return eval;
}

int PlacementEvaluator::Compare(const PlacementEvaluation& a,
                                const PlacementEvaluation& b) const {
  MWP_CHECK_MSG(!a.rejected_by_bound && !b.rejected_by_bound,
                "bound-rejected evaluations have no score to compare");
  MWP_DCHECK(a.score.size() == b.score.size());
  for (std::size_t i = 0; i < a.score.size(); ++i) {
    const double diff = a.score[i] - b.score[i];
    if (diff > options_.tie_tolerance) return 1;
    if (diff < -options_.tie_tolerance) return -1;
  }
  if (a.changes.size() < b.changes.size()) return 1;
  if (a.changes.size() > b.changes.size()) return -1;
  return 0;
}

std::size_t PlacementEvaluator::cache_hits() const {
  return column_cache_ != nullptr ? column_cache_->hits() : 0;
}

std::size_t PlacementEvaluator::cache_misses() const {
  return column_cache_ != nullptr ? column_cache_->misses() : 0;
}

}  // namespace mwp
