// Job queue: ownership and bookkeeping of every job submitted to the system.
//
// The job scheduler in the paper (§3.1) accepts submissions, keeps jobs in a
// queue, dispatches them according to the placement controller's decisions
// and reports completions. This class is that queue: it owns Job objects for
// their whole lifetime and offers the views the controllers need (incomplete
// jobs, placed jobs, pending jobs in submission order).
//
// Live list. Besides the full history, the queue keeps the jobs it has not
// yet seen completed, in submission order. Completion is terminal: only
// Job::AdvanceTo sets it, and Job::Place refuses a completed job. So a job
// leaves the live list exactly once, in the first pass that sees it
// completed. ForEachLive is that pass; Incomplete(), Placed() and
// AwaitingPlacement() are built on it. They and num_completed() cost
// O(live jobs), not O(jobs ever submitted), and see exactly what a filter
// over the whole history would, in the same order. A long-running
// controller's history grows without bound while its live set stays small.
// All() and Completed() are the only scans of the whole history; end-of-run
// reports use them.
//
// Threading. The views prune the live list, so they write. A JobQueue is
// confined to the control thread: the thread that submits jobs, runs the
// controller's capture/commit and dispatch, and advances the jobs.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "batch/job.h"

namespace mwp {

class JobQueue {
 public:
  JobQueue() = default;
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Transfer ownership of a job into the queue. Ids must be unique;
  /// duplicate submission throws. O(1) expected — bulk submission of n jobs
  /// is O(n) overall (the id index makes the duplicate check a hash lookup,
  /// not a scan).
  Job& Submit(std::unique_ptr<Job> job);

  std::size_t size() const { return jobs_.size(); }

  /// O(1) expected lookup by id; null when unknown.
  Job* Find(AppId id);
  const Job* Find(AppId id) const;

  /// All jobs ever submitted, in submission order. O(history).
  std::vector<const Job*> All() const;

  /// Calls `visit(Job&)` on every job not yet completed, in submission
  /// order, in one pass over the live list. The visitor may complete the job
  /// it visits (Job::AdvanceTo); the pass then drops that job from the list.
  /// It must not submit jobs or call another view. O(live).
  template <typename Visit>
  void ForEachLive(Visit&& visit);

  /// Jobs not yet completed, in submission order — the management entities a
  /// placement controller reasons about each cycle. O(live).
  std::vector<Job*> Incomplete();

  /// Placed (running or paused) jobs, submission order. O(live).
  std::vector<Job*> Placed();

  /// Jobs waiting for placement (not-started or suspended), submission order.
  /// O(live).
  std::vector<Job*> AwaitingPlacement();

  /// Completed jobs, submission order. O(history).
  std::vector<const Job*> Completed() const;

  /// O(live).
  std::size_t num_completed() const;

 private:
  /// The incomplete jobs that satisfy `keep`, in one ForEachLive pass.
  template <typename Keep>
  std::vector<Job*> LiveWhere(Keep keep);

  std::vector<std::unique_ptr<Job>> jobs_;
  /// id → index into jobs_. Jobs are never removed, so the map only grows
  /// in Submit and stays in sync by construction.
  std::unordered_map<AppId, std::size_t> index_;
  /// Jobs not yet seen completed, in submission order; a superset of the
  /// incomplete jobs until the next view prunes it.
  std::vector<Job*> live_;
};

template <typename Visit>
void JobQueue::ForEachLive(Visit&& visit) {
  auto kept = live_.begin();
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    Job* j = *it;
    if (!j->completed()) visit(*j);
    if (j->completed()) continue;
    // Compacting in place: write back only once a completed job has been
    // dropped, so a pass that drops nothing writes nothing.
    if (kept != it) *kept = j;
    ++kept;
  }
  live_.erase(kept, live_.end());
}

}  // namespace mwp
