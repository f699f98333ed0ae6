#include "core/placement_optimizer.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/incumbent_index.h"

namespace mwp {
namespace {

/// Yields the candidates TryImproveNode scores, in the exact order the
/// sequential nested loops try them: for each base configuration (0, 1, 2,
/// … residents peeled off the node, best-off first) the feasible wish-list
/// prefix, then the migration donors. Feasibility and memory skips do not
/// consume a "tried" slot, matching the sequential loops. A candidate comes
/// out as its change to the incumbent, with IsFeasible's verdict computed
/// from the change on `work`, a copy of the incumbent that Next leaves
/// equal to it on return.
class CandidateStream {
 public:
  CandidateStream(const PlacementEvaluator& evaluator, int node,
                  const IncumbentIndex& index, PlacementMatrix& work,
                  const PlacementEvaluation& best_eval,
                  const std::vector<int>& wishes)
      : snap_(evaluator.snapshot()),
        evaluator_(evaluator),
        node_(node),
        index_(index),
        work_(work),
        wishes_(wishes) {
    if (!wishes_.empty()) {
      // Residents of this node, peeled off in order of descending predicted
      // utility: the best-off applications give way first.
      for (int e = 0; e < snap_.num_entities(); ++e) {
        for (int k = 0; k < work_.at(e, node_); ++k) residents_.push_back(e);
      }
      std::stable_sort(residents_.begin(), residents_.end(), [&](int a, int b) {
        return best_eval.entity_utilities[static_cast<std::size_t>(a)] >
               best_eval.entity_utilities[static_cast<std::size_t>(b)];
      });
    } else {
      phase_ = Phase::kMigration;
    }

    // Placed jobs hosted elsewhere. The incumbent passed Distribute's
    // feasibility check, so a job has at most one instance: the index's.
    for (int j = 0; j < snap_.num_jobs(); ++j) {
      const int at = index_.job_nodes()[static_cast<std::size_t>(j)];
      if (at == kInvalidNode || at == node_) continue;
      donors_.push_back(snap_.EntityOfJob(j));
    }
    std::stable_sort(donors_.begin(), donors_.end(), [&](int a, int b) {
      return best_eval.entity_utilities[static_cast<std::size_t>(a)] <
             best_eval.entity_utilities[static_cast<std::size_t>(b)];
    });
  }

  /// Writes the next candidate's change into `out`; false when the stream
  /// is done.
  bool Next(CandidateChange* out) {
    if (phase_ == Phase::kWish && NextWish(out)) return true;
    phase_ = Phase::kMigration;
    return NextMigration(out);
  }

 private:
  enum class Phase { kWish, kMigration };

  /// Removes (delta -1) or restores (+1) the current base configuration's
  /// peeled residents in work_.
  void Peel(int delta) {
    for (std::size_t r = 0; r < removals_; ++r) {
      work_.at(residents_[r], node_) += delta;
    }
  }

  bool NextWish(CandidateChange* out) {
    while (removals_ <= residents_.size()) {
      Peel(-1);
      if (!base_ready_) {
        free_ = snap_.FreeMemory(work_, node_);
        wish_pos_ = 0;
        tried_ = 0;
        base_ready_ = true;
      }
      const bool found = NextWishOnBase(out);
      Peel(+1);
      if (found) return true;
      ++removals_;
      base_ready_ = false;
    }
    return false;
  }

  /// The next feasible wish added to the base configuration work_ holds.
  bool NextWishOnBase(CandidateChange* out) {
    while (wish_pos_ < wishes_.size() &&
           tried_ < PlacementOptimizer::kMaxWishesTried) {
      const int w = wishes_[wish_pos_++];
      if (snap_.IsJobEntity(w)) {
        // A wished job is unplaced in the incumbent, so in every base.
        MWP_DCHECK(index_.job_nodes()[static_cast<std::size_t>(
                       snap_.JobOfEntity(w))] == kInvalidNode);
      } else {
        if (work_.at(w, node_) > 0) continue;
      }
      if (snap_.EntityMemory(w) > free_ + kEpsilon) continue;
      out->Clear();
      for (std::size_t r = 0; r < removals_; ++r) {
        out->Add(residents_[r], node_, -1);
      }
      out->Add(w, node_, +1);
      out->Seal();
      work_.at(w, node_) += 1;
      out->feasible = evaluator_.IsFeasibleCandidate(work_, index_, *out);
      work_.at(w, node_) -= 1;
      if (!out->feasible) continue;
      ++tried_;
      return true;
    }
    return false;
  }

  bool NextMigration(CandidateChange* out) {
    if (!mig_free_ready_) {
      mig_free_ = snap_.FreeMemory(work_, node_);
      mig_free_ready_ = true;
    }
    while (donor_pos_ < donors_.size() &&
           mig_tried_ < PlacementOptimizer::kMaxMigrationsTried) {
      const int donor = donors_[donor_pos_++];
      if (snap_.EntityMemory(donor) > mig_free_ + kEpsilon) continue;
      const int from =
          index_.job_nodes()[static_cast<std::size_t>(snap_.JobOfEntity(donor))];
      out->Clear();
      out->Add(donor, from, -1);
      out->Add(donor, node_, +1);
      out->Seal();
      out->ApplyTo(work_);
      out->feasible = evaluator_.IsFeasibleCandidate(work_, index_, *out);
      out->RevertFrom(work_);
      if (!out->feasible) continue;
      ++mig_tried_;
      return true;
    }
    return false;
  }

  const PlacementSnapshot& snap_;
  const PlacementEvaluator& evaluator_;
  const int node_;
  const IncumbentIndex& index_;
  PlacementMatrix& work_;
  const std::vector<int>& wishes_;

  Phase phase_ = Phase::kWish;
  std::vector<int> residents_;
  std::size_t removals_ = 0;
  bool base_ready_ = false;
  Megabytes free_ = 0.0;
  std::size_t wish_pos_ = 0;
  int tried_ = 0;

  std::vector<int> donors_;
  std::size_t donor_pos_ = 0;
  int mig_tried_ = 0;
  bool mig_free_ready_ = false;
  Megabytes mig_free_ = 0.0;
};

int ResolveLanes(int search_threads) {
  if (search_threads > 0) return std::min(search_threads, 32);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 32);
}

}  // namespace

/// What the search keeps about its incumbent besides Result::placement:
/// the index candidates are scored against, and per lane a copy of the
/// placement that equals the incumbent except while the lane scores a
/// candidate on it (lane 0's also serves the candidate stream).
struct PlacementOptimizer::Incumbent {
  IncumbentIndex index;
  std::vector<PlacementMatrix> lanes;
  /// Candidate changes of the chunk being scored (one when sequential).
  std::vector<CandidateChange> chunk;

  Incumbent(const PlacementSnapshot& snap, const PlacementMatrix& placement,
            int lane_count)
      : index(snap, placement),
        lanes(static_cast<std::size_t>(lane_count), placement),
        chunk(1) {}

  /// Commits `change` into `placement` (the incumbent), every lane's copy
  /// and the index.
  void Commit(const CandidateChange& change, PlacementMatrix& placement) {
    change.ApplyTo(placement);
    for (PlacementMatrix& p : lanes) change.ApplyTo(p);
    index.Commit(placement, change);
  }
};

void PlacementOptimizer::Options::Validate() const {
  MWP_CHECK(max_sweeps >= 1);
  MWP_CHECK(search_threads >= 0);
  evaluator.Validate();
}

PlacementOptimizer::PlacementOptimizer(const PlacementSnapshot* snapshot)
    : PlacementOptimizer(snapshot, Options{}) {}

PlacementOptimizer::PlacementOptimizer(const PlacementSnapshot* snapshot,
                                       Options options)
    : snapshot_(snapshot),
      options_(std::move(options)),
      evaluator_(snapshot, options_.evaluator) {
  MWP_CHECK(snapshot_ != nullptr);
  options_.Validate();
  lanes_ = ResolveLanes(options_.search_threads);
  scratches_.resize(static_cast<std::size_t>(lanes_));
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);
}

std::vector<int> PlacementOptimizer::WishList(
    const PlacementMatrix& p, const PlacementEvaluation& eval) const {
  const PlacementSnapshot& snap = *snapshot_;
  std::vector<int> wishes;
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const int entity = snap.EntityOfJob(j);
    if (!eval.distribution.placed[static_cast<std::size_t>(entity)]) {
      wishes.push_back(entity);
    }
  }
  for (int w = 0; w < snap.num_tx(); ++w) {
    const TxView& tv = snap.tx(w);
    if (tv.arrival_rate <= 1e-12) continue;
    const int entity = snap.EntityOfTx(w);
    const int instances = p.InstanceCount(entity);
    if (tv.max_instances > 0 && instances >= tv.max_instances) continue;
    if (instances >= snap.num_nodes()) continue;
    // The app wants another instance while its utility is short of the
    // model's ceiling (spread capacity could still raise it).
    const Utility u = eval.entity_utilities[static_cast<std::size_t>(entity)];
    const Utility ceiling = tv.app->ModelAt(tv.arrival_rate).max_utility();
    if (u < ceiling - options_.evaluator.tie_tolerance) wishes.push_back(entity);
  }
  // Lowest relative performance first: the neediest application gets the
  // first shot at freed capacity. The objective's per-entity bias shifts
  // need (Karma: credit holders rank needier; zero otherwise).
  const FairnessObjective& objective = evaluator_.objective();
  std::vector<double> need(eval.entity_utilities.size());
  for (const int e : wishes) {
    const auto i = static_cast<std::size_t>(e);
    need[i] = eval.entity_utilities[i] + objective.EntityBias(e);
  }
  std::stable_sort(wishes.begin(), wishes.end(), [&](int a, int b) {
    return need[static_cast<std::size_t>(a)] <
           need[static_cast<std::size_t>(b)];
  });
  return wishes;
}

bool PlacementOptimizer::TryImproveNode(int node, Result& result,
                                        Incumbent& incumbent) const {
  const std::vector<int> wishes = WishList(result.placement, result.evaluation);
  CandidateStream stream(evaluator_, node, incumbent.index, incumbent.lanes[0],
                         result.evaluation, wishes);
  std::vector<CandidateChange>& chunk = incumbent.chunk;

  if (lanes_ <= 1) {
    CandidateChange& change = chunk[0];
    PlacementMatrix& candidate = incumbent.lanes[0];
    while (stream.Next(&change)) {
      change.ApplyTo(candidate);
      PlacementEvaluation cand_eval =
          evaluator_.Evaluate(candidate, incumbent.index, change,
                              scratches_[0], &result.evaluation);
      change.RevertFrom(candidate);
      ++result.evaluations;
      if (!cand_eval.rejected_by_bound &&
          evaluator_.Compare(cand_eval, result.evaluation) > 0) {
        incumbent.Commit(change, result.placement);
        result.evaluation = std::move(cand_eval);
        return true;
      }
    }
    return false;
  }

  // Parallel search: pull a chunk of candidates, score them concurrently,
  // each lane on its own copy of the incumbent, then commit the first
  // winner in enumeration order. Candidates past the winner are speculative
  // work the sequential order never reaches — their results are discarded
  // and they do not count as evaluations.
  const std::size_t chunk_target = static_cast<std::size_t>(lanes_) * 2;
  std::vector<PlacementEvaluation> evals;
  for (;;) {
    std::size_t count = 0;
    while (count < chunk_target) {
      if (chunk.size() == count) chunk.emplace_back();
      if (!stream.Next(&chunk[count])) break;
      ++count;
    }
    if (count == 0) return false;

    evals.assign(count, PlacementEvaluation{});
    pool_->ParallelFor(count, [&](int lane, std::size_t i) {
      PlacementMatrix& candidate = incumbent.lanes[static_cast<std::size_t>(lane)];
      chunk[i].ApplyTo(candidate);
      evals[i] = evaluator_.Evaluate(
          candidate, incumbent.index, chunk[i],
          scratches_[static_cast<std::size_t>(lane)], &result.evaluation);
      chunk[i].RevertFrom(candidate);
    });

    for (std::size_t i = 0; i < count; ++i) {
      if (evals[i].rejected_by_bound) continue;
      if (evaluator_.Compare(evals[i], result.evaluation) > 0) {
        result.evaluations += static_cast<int>(i) + 1;
        incumbent.Commit(chunk[i], result.placement);
        result.evaluation = std::move(evals[i]);
        return true;
      }
    }
    result.evaluations += static_cast<int>(count);
  }
}

std::uint64_t PlacementOptimizer::TotalDistributeCalls() const {
  std::uint64_t total = 0;
  for (const EvalScratch& s : scratches_) {
    total += s.distributor.stats().distribute_calls;
  }
  return total;
}

PlacementOptimizer::Result PlacementOptimizer::Optimize() const {
  // Scratch and cache counters are monotone; differencing them around the
  // search scopes the activity to this solve. Single-digit-nanosecond
  // bookkeeping, so tracing costs nothing when nobody reads the Result
  // fields.
  const std::size_t hits_before = evaluator_.cache_hits();
  const std::size_t misses_before = evaluator_.cache_misses();
  const std::uint64_t distributes_before = TotalDistributeCalls();
  Result result = RunSearch();
  result.cache_hits = evaluator_.cache_hits() - hits_before;
  result.cache_misses = evaluator_.cache_misses() - misses_before;
  result.distribute_calls = TotalDistributeCalls() - distributes_before;
  return result;
}

PlacementOptimizer::Result PlacementOptimizer::RunSearch() const {
  const PlacementSnapshot& snap = *snapshot_;
  Result result;
  result.placement = snap.current_placement();
  result.evaluation = evaluator_.Evaluate(result.placement, scratches_[0],
                                          nullptr);
  result.evaluations = 1;
  result.incumbent_utilities = RpVector(result.evaluation.entity_utilities);

  // Paper's shortcut: when nobody wants more capacity, the incumbent (with
  // freshly rebalanced CPU) is the answer.
  if (WishList(result.placement, result.evaluation).empty()) {
    result.used_shortcut = true;
    return result;
  }

  // Transactional bootstrap: a single new instance of a heavily loaded app
  // can sit below its stability boundary, so one-step growth never looks
  // better than nothing. Offer a whole-cluster expansion as one candidate.
  for (int w = 0; w < snap.num_tx(); ++w) {
    const int entity = snap.EntityOfTx(w);
    if (snap.tx(w).arrival_rate <= 1e-12) continue;
    PlacementMatrix candidate = result.placement;
    const int cap = snap.tx(w).max_instances;
    bool grew = false;
    for (int node = 0; node < snap.num_nodes(); ++node) {
      if (!snap.NodeOnline(node)) continue;
      if (candidate.at(entity, node) > 0) continue;
      if (cap > 0 && candidate.InstanceCount(entity) >= cap) break;
      if (snap.EntityMemory(entity) >
          snap.FreeMemory(candidate, node) + kEpsilon) {
        continue;
      }
      candidate.at(entity, node) += 1;
      grew = true;
    }
    if (!grew || !snap.IsFeasible(candidate)) continue;
    PlacementEvaluation cand_eval =
        evaluator_.Evaluate(candidate, scratches_[0], &result.evaluation);
    ++result.evaluations;
    if (!cand_eval.rejected_by_bound &&
        evaluator_.Compare(cand_eval, result.evaluation) > 0) {
      result.placement = std::move(candidate);
      result.evaluation = std::move(cand_eval);
    }
  }

  // Batch bootstrap, the dual of the transactional one: placing a single
  // queued job raises the batch aggregate by only a few percent — often
  // inside the tie tolerance — yet filling *all* free capacity is a clear
  // win. Offer "start every queued job that fits" as one candidate, jobs in
  // lowest-RP-first order, each on the node with the most free memory.
  {
    PlacementMatrix candidate = result.placement;
    const std::vector<int> wishes = WishList(candidate, result.evaluation);
    bool added = false;
    for (int w : wishes) {
      if (!snap.IsJobEntity(w)) continue;
      if (candidate.InstanceCount(w) > 0) continue;
      int best_node = -1;
      Megabytes best_free = snap.EntityMemory(w) - kEpsilon;
      for (int node = 0; node < snap.num_nodes(); ++node) {
        if (!snap.NodeOnline(node)) continue;
        const Megabytes free = snap.FreeMemory(candidate, node);
        if (free > best_free) {
          best_free = free;
          best_node = node;
        }
      }
      if (best_node < 0) continue;
      candidate.at(w, best_node) += 1;
      added = true;
    }
    if (added && snap.IsFeasible(candidate)) {
      PlacementEvaluation cand_eval =
          evaluator_.Evaluate(candidate, scratches_[0], &result.evaluation);
      ++result.evaluations;
      if (!cand_eval.rejected_by_bound &&
          evaluator_.Compare(cand_eval, result.evaluation) > 0) {
        result.placement = std::move(candidate);
        result.evaluation = std::move(cand_eval);
      }
    }
  }

  // From here on every candidate is one change to the incumbent.
  Incumbent incumbent(snap, result.placement, lanes_);
  for (int sweep = 0; sweep < options_.max_sweeps; ++sweep) {
    bool improved = false;
    for (int node = 0; node < snap.num_nodes(); ++node) {
      // A crashed node can host nothing; every candidate targeting it would
      // fail IsFeasible, so skip the whole stream.
      if (!snap.NodeOnline(node)) continue;
      for (int change = 0; change < kMaxChangesPerNode; ++change) {
        if (!TryImproveNode(node, result, incumbent)) break;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return result;
}

}  // namespace mwp
