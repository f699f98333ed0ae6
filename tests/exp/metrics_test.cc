#include "batch/job_metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mwp {
namespace {

std::unique_ptr<Job> CompletedJob(AppId id, Seconds submit, double factor,
                                  Seconds exec_seconds, Seconds start_at) {
  JobProfile p = JobProfile::SingleStage(exec_seconds * 1'000.0, 1'000.0,
                                         100.0);
  auto job = std::make_unique<Job>(
      id, std::string("j").append(std::to_string(id)), p,
      JobGoal::FromFactor(submit, factor, p.min_execution_time()));
  job->Place(0, start_at, 0.0);
  job->SetAllocation(1'000.0);
  job->AdvanceTo(start_at, start_at + exec_seconds + 1.0);
  return job;
}

TEST(MetricsTest, CollectOutcomesBasics) {
  JobQueue q;
  q.Submit(CompletedJob(1, 0.0, 3.0, 10.0, 0.0));   // completes 10, goal 30
  q.Submit(CompletedJob(2, 0.0, 1.5, 10.0, 20.0));  // completes 30, goal 15
  const auto records = CollectOutcomes(q);
  ASSERT_EQ(records.size(), 2u);
  // Ordered by completion time.
  EXPECT_EQ(records[0].id, 1);
  EXPECT_EQ(records[1].id, 2);
  EXPECT_DOUBLE_EQ(records[0].distance_to_goal, 20.0);
  EXPECT_TRUE(records[0].met_deadline());
  EXPECT_DOUBLE_EQ(records[1].distance_to_goal, -15.0);
  EXPECT_FALSE(records[1].met_deadline());
  EXPECT_DOUBLE_EQ(records[0].goal_factor, 3.0);
}

TEST(MetricsTest, IncompleteJobsExcluded) {
  JobQueue q;
  JobProfile p = JobProfile::SingleStage(1'000.0, 100.0, 10.0);
  q.Submit(std::make_unique<Job>(9, "pending", p,
                                 JobGoal::FromFactor(0.0, 2.0, 10.0)));
  q.Submit(CompletedJob(1, 0.0, 3.0, 10.0, 0.0));
  EXPECT_EQ(CollectOutcomes(q).size(), 1u);
}

TEST(MetricsTest, LimitKeepsFirstCompletions) {
  JobQueue q;
  for (int j = 0; j < 5; ++j) {
    q.Submit(CompletedJob(j + 1, 0.0, 10.0, 5.0, j * 10.0));
  }
  const auto records = CollectOutcomes(q, 3);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.back().id, 3);
}

TEST(MetricsTest, DeadlineSatisfactionFraction) {
  JobQueue q;
  q.Submit(CompletedJob(1, 0.0, 3.0, 10.0, 0.0));   // met
  q.Submit(CompletedJob(2, 0.0, 1.5, 10.0, 20.0));  // missed
  q.Submit(CompletedJob(3, 0.0, 5.0, 10.0, 0.0));   // met
  const auto records = CollectOutcomes(q);
  EXPECT_NEAR(DeadlineSatisfaction(records), 2.0 / 3.0, 1e-9);
}

TEST(MetricsTest, DeadlineSatisfactionEmptyIsNaN) {
  EXPECT_TRUE(std::isnan(DeadlineSatisfaction({})));
}

TEST(MetricsTest, FilterByGoalFactor) {
  JobQueue q;
  q.Submit(CompletedJob(1, 0.0, 1.3, 10.0, 0.0));
  q.Submit(CompletedJob(2, 0.0, 2.5, 10.0, 0.0));
  q.Submit(CompletedJob(3, 0.0, 1.3, 10.0, 0.0));
  const auto records = CollectOutcomes(q);
  EXPECT_EQ(FilterByGoalFactor(records, 1.3).size(), 2u);
  EXPECT_EQ(FilterByGoalFactor(records, 2.5).size(), 1u);
  EXPECT_EQ(FilterByGoalFactor(records, 4.0).size(), 0u);
}

TEST(MetricsTest, DistanceSampleValues) {
  JobQueue q;
  q.Submit(CompletedJob(1, 0.0, 3.0, 10.0, 0.0));
  const auto sample = DistanceSample(CollectOutcomes(q));
  ASSERT_EQ(sample.count(), 1u);
  EXPECT_DOUBLE_EQ(sample.values()[0], 20.0);
}

TEST(MetricsTest, AchievedUtilityConsistentWithDistance) {
  JobQueue q;
  q.Submit(CompletedJob(1, 0.0, 3.0, 10.0, 0.0));
  const auto r = CollectOutcomes(q).front();
  // u = distance / relative_goal for jobs with τ_start = submit time.
  EXPECT_NEAR(r.achieved_utility, r.distance_to_goal / r.relative_goal, 1e-9);
}

}  // namespace
}  // namespace mwp
