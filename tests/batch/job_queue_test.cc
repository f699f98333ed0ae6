#include "batch/job_queue.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace mwp {
namespace {

std::unique_ptr<Job> MakeJob(AppId id, Seconds submit = 0.0) {
  JobProfile p = JobProfile::SingleStage(1'000.0, 1'000.0, 100.0);
  return std::make_unique<Job>(id, "job-" + std::to_string(id), p,
                               JobGoal::FromFactor(submit, 3.0, 1.0));
}

TEST(JobQueueTest, SubmitAndFind) {
  JobQueue q;
  Job& j = q.Submit(MakeJob(7));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Find(7), &j);
  EXPECT_EQ(q.Find(8), nullptr);
}

TEST(JobQueueTest, DuplicateIdThrows) {
  JobQueue q;
  q.Submit(MakeJob(1));
  EXPECT_THROW(q.Submit(MakeJob(1)), std::logic_error);
}

TEST(JobQueueTest, SubmissionOrderPreserved) {
  JobQueue q;
  q.Submit(MakeJob(3));
  q.Submit(MakeJob(1));
  q.Submit(MakeJob(2));
  const auto all = q.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->id(), 3);
  EXPECT_EQ(all[1]->id(), 1);
  EXPECT_EQ(all[2]->id(), 2);
}

TEST(JobQueueTest, ViewsReflectStatus) {
  JobQueue q;
  Job& running = q.Submit(MakeJob(1));
  Job& queued = q.Submit(MakeJob(2));
  Job& suspended = q.Submit(MakeJob(3));
  Job& done = q.Submit(MakeJob(4));

  running.Place(0, 0.0, 0.0);
  running.SetAllocation(500.0);
  suspended.Place(1, 0.0, 0.0);
  suspended.SetAllocation(500.0);
  suspended.Suspend(0.5);
  done.Place(2, 0.0, 0.0);
  done.SetAllocation(1'000.0);
  done.AdvanceTo(0.0, 10.0);
  ASSERT_TRUE(done.completed());

  EXPECT_EQ(q.Incomplete().size(), 3u);
  EXPECT_EQ(q.Placed().size(), 1u);
  EXPECT_EQ(q.Placed()[0], &running);
  const auto awaiting = q.AwaitingPlacement();
  ASSERT_EQ(awaiting.size(), 2u);
  EXPECT_EQ(awaiting[0], &queued);
  EXPECT_EQ(awaiting[1], &suspended);
  EXPECT_EQ(q.Completed().size(), 1u);
  EXPECT_EQ(q.num_completed(), 1u);
}

/// The queue's views as a filter over the whole history, in submission
/// order: the semantics every view must keep however it is implemented.
struct HistoryScan {
  std::vector<const Job*> incomplete;
  std::vector<const Job*> placed;
  std::vector<const Job*> awaiting;
  std::size_t completed = 0;
};

HistoryScan ScanHistory(const JobQueue& q) {
  HistoryScan scan;
  for (const Job* job : q.All()) {
    if (job->completed()) {
      ++scan.completed;
    } else {
      scan.incomplete.push_back(job);
    }
    if (job->placed()) scan.placed.push_back(job);
    if (job->status() == JobStatus::kNotStarted ||
        job->status() == JobStatus::kSuspended) {
      scan.awaiting.push_back(job);
    }
  }
  return scan;
}

std::vector<const Job*> AsConst(const std::vector<Job*>& jobs) {
  return {jobs.begin(), jobs.end()};
}

/// Every view and the live visitor, called twice with nothing changed in
/// between, against the history scan.
void ExpectViewsMatchScan(JobQueue& q, int op) {
  const HistoryScan scan = ScanHistory(q);
  for (int call = 0; call < 2; ++call) {
    std::vector<const Job*> visited;
    q.ForEachLive([&visited](Job& job) { visited.push_back(&job); });
    ASSERT_EQ(visited, scan.incomplete) << "op " << op << " call " << call;
    ASSERT_EQ(AsConst(q.Incomplete()), scan.incomplete)
        << "op " << op << " call " << call;
    ASSERT_EQ(AsConst(q.Placed()), scan.placed)
        << "op " << op << " call " << call;
    ASSERT_EQ(AsConst(q.AwaitingPlacement()), scan.awaiting)
        << "op " << op << " call " << call;
    ASSERT_EQ(q.num_completed(), scan.completed)
        << "op " << op << " call " << call;
  }
  ASSERT_EQ(q.Completed().size(), scan.completed) << "op " << op;
}

/// Uniformly chosen job among `jobs`, mutable through the queue.
Job* Pick(JobQueue& q, const std::vector<const Job*>& jobs, Rng& rng) {
  if (jobs.empty()) return nullptr;
  const auto i = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(jobs.size()) - 1));
  return q.Find(jobs[i]->id());
}

TEST(JobQueueTest, ViewsMatchHistoryScanUnderChurn) {
  // A seeded mix of every status transition. After each operation the
  // views must return exactly the jobs a history scan finds, in the same
  // order, and num_completed must agree.
  JobQueue q;
  Rng rng(20'240'617);
  AppId next_id = 1;
  Seconds now = 0.0;
  int resumes = 0, pauses = 0, suspends = 0, crashes = 0, completions = 0;
  int completed_mid_loop = 0;
  int completed_in_visit = 0;
  constexpr int kOps = 6'000;
  for (int op = 0; op < kOps; ++op) {
    now += 0.25;
    const HistoryScan scan = ScanHistory(q);
    const double roll = rng.Uniform01();
    if (roll < 0.22 || scan.incomplete.empty()) {
      q.Submit(MakeJob(next_id++, now));
    } else if (roll < 0.42) {
      // Place + SetAllocation: start a queued job or resume a suspended one.
      if (Job* job = Pick(q, scan.awaiting, rng)) {
        resumes += job->status() == JobStatus::kSuspended;
        job->Place(static_cast<NodeId>(rng.UniformInt(0, 7)), now,
                   rng.Uniform01() < 0.5 ? 0.0 : 0.5);
        job->SetAllocation(rng.Uniform(100.0, 1'000.0));
      }
    } else if (roll < 0.50) {
      // Pause, or unpause, a placed job through its allocation.
      if (Job* job = Pick(q, scan.placed, rng)) {
        pauses += job->allocated_speed() > 0.0;
        job->SetAllocation(job->allocated_speed() > 0.0
                               ? 0.0
                               : rng.Uniform(100.0, 1'000.0));
      }
    } else if (roll < 0.56) {
      if (Job* job = Pick(q, scan.placed, rng)) {
        job->Suspend(now);
        ++suspends;
      }
    } else if (roll < 0.61) {
      if (Job* job = Pick(q, scan.placed, rng)) {
        job->Crash(now);
        ++crashes;
      }
    } else if (roll < 0.85) {
      // One job runs for a while; most runs reach completion.
      if (Job* job = Pick(q, scan.placed, rng)) {
        completions += job->AdvanceTo(now, now + rng.Uniform(0.0, 4.0));
      }
    } else if (roll < 0.93) {
      // Advance every placed job while iterating one Placed() result, so
      // jobs complete mid-loop, and call the views from inside the loop now
      // and then.
      const std::vector<Job*> placed = q.Placed();
      for (Job* job : placed) {
        completed_mid_loop += job->AdvanceTo(now, now + rng.Uniform(0.0, 1.5));
        if (rng.Uniform01() < 0.05) ExpectViewsMatchScan(q, op);
      }
      // The iterated result is a copy: jobs that completed stay in it.
      EXPECT_EQ(AsConst(placed), scan.placed) << "op " << op;
    } else {
      // The controller's pattern: one visitor pass advances every placed
      // job, completing some of the jobs it visits. It still visits exactly
      // the incomplete jobs, in order, and the views after it drop the
      // jobs it completed.
      std::vector<const Job*> visited;
      q.ForEachLive([&](Job& job) {
        visited.push_back(&job);
        if (job.placed()) {
          completed_in_visit +=
              job.AdvanceTo(now, now + rng.Uniform(0.0, 1.5));
        }
      });
      EXPECT_EQ(visited, scan.incomplete) << "op " << op;
    }
    ExpectViewsMatchScan(q, op);
    if (HasFatalFailure()) return;
  }
  // The run exercised every transition at scale.
  EXPECT_GE(q.size(), 1'000u);
  EXPECT_EQ(q.num_completed(),
            static_cast<std::size_t>(completions + completed_mid_loop +
                                     completed_in_visit));
  EXPECT_GT(completions, 100);
  EXPECT_GT(completed_mid_loop, 100);
  EXPECT_GT(completed_in_visit, 100);
  EXPECT_GT(resumes, 10);
  EXPECT_GT(pauses, 10);
  EXPECT_GT(suspends, 10);
  EXPECT_GT(crashes, 10);
}

TEST(JobQueueTest, BulkSubmitFindsEveryJob) {
  // Submit O(n) exercises the id → index map (Submit/Find used to scan the
  // whole vector, making experiment setup quadratic in job count).
  JobQueue q;
  constexpr AppId kCount = 500;
  for (AppId id = 1; id <= kCount; ++id) q.Submit(MakeJob(id * 3));
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kCount));
  for (AppId id = 1; id <= kCount; ++id) {
    const Job* job = q.Find(id * 3);
    ASSERT_NE(job, nullptr) << "id " << id * 3;
    EXPECT_EQ(job->id(), id * 3);
  }
  EXPECT_EQ(q.Find(2), nullptr);  // never submitted (ids are multiples of 3)
}

TEST(JobQueueTest, DuplicateRejectedAfterBulkSubmit) {
  JobQueue q;
  for (AppId id = 1; id <= 100; ++id) q.Submit(MakeJob(id));
  EXPECT_THROW(q.Submit(MakeJob(57)), std::logic_error);
  // The failed submit must not have corrupted the queue or the index.
  EXPECT_EQ(q.size(), 100u);
  ASSERT_NE(q.Find(57), nullptr);
  EXPECT_EQ(q.Find(57)->id(), 57);
}

TEST(JobQueueTest, NullSubmitThrows) {
  JobQueue q;
  EXPECT_THROW(q.Submit(nullptr), std::logic_error);
}

TEST(JobQueueTest, ConstFind) {
  JobQueue q;
  q.Submit(MakeJob(5));
  const JobQueue& cq = q;
  EXPECT_NE(cq.Find(5), nullptr);
  EXPECT_EQ(cq.Find(6), nullptr);
}

}  // namespace
}  // namespace mwp
