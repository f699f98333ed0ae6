#include "sched/fcfs_scheduler.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace mwp {
namespace {

ClusterSpec SmallCluster(int nodes = 1) {
  return ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0});
}

std::unique_ptr<Job> MakeJob(AppId id, Seconds submit, Megacycles work,
                             MHz speed, double factor,
                             Megabytes mem = 750.0) {
  JobProfile p = JobProfile::SingleStage(work, speed, mem);
  return std::make_unique<Job>(id, "job-" + std::to_string(id), p,
                               JobGoal::FromFactor(submit, factor,
                                                   p.min_execution_time()));
}

struct Harness {
  ClusterSpec cluster;
  JobQueue queue;
  Simulation sim;
  FcfsScheduler scheduler;

  explicit Harness(int nodes = 1,
                   BaselineScheduler::Config cfg = {
                       VmCostModel::Free(), {}})
      : cluster(SmallCluster(nodes)), scheduler(&cluster, &queue, cfg) {}

  void Submit(std::unique_ptr<Job> job, Seconds at) {
    auto holder = std::make_shared<std::unique_ptr<Job>>(std::move(job));
    sim.ScheduleAt(at, [this, holder](Simulation& s) {
      queue.Submit(std::move(*holder));
      scheduler.OnJobSubmitted(s);
    });
  }
};

TEST(FcfsSchedulerTest, RunsJobsInOrder) {
  Harness h;
  h.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0), 0.0);
  h.Submit(MakeJob(2, 0.0, 4'000.0, 1'000.0, 5.0), 0.0);
  h.sim.RunUntil(100.0);
  h.scheduler.AdvanceJobsTo(h.sim.now());

  // Memory allows both concurrently (750 + 750 < 2,000) but CPU first-fit
  // reserves 1,000 each — only one node, so they serialize.
  ASSERT_EQ(h.queue.num_completed(), 2u);
  EXPECT_NEAR(*h.queue.Find(1)->completion_time(), 4.0, 1e-6);
  EXPECT_NEAR(*h.queue.Find(2)->completion_time(), 8.0, 1e-6);
}

TEST(FcfsSchedulerTest, JobsRunAtMaxSpeed) {
  Harness h;
  h.Submit(MakeJob(1, 0.0, 2'000.0, 500.0, 5.0), 0.0);
  h.Submit(MakeJob(2, 0.0, 2'000.0, 500.0, 5.0), 0.0);
  h.sim.RunUntil(50.0);
  h.scheduler.AdvanceJobsTo(h.sim.now());
  // Two 500 MHz jobs fit the 1,000 MHz node concurrently.
  ASSERT_EQ(h.queue.num_completed(), 2u);
  EXPECT_NEAR(*h.queue.Find(1)->completion_time(), 4.0, 1e-6);
  EXPECT_NEAR(*h.queue.Find(2)->completion_time(), 4.0, 1e-6);
}

TEST(FcfsSchedulerTest, HeadOfQueueBlocks) {
  Harness h;
  // Big job (memory 1,500) runs; next job (memory 1,500) can't fit; a tiny
  // job behind it must NOT backfill under strict FCFS.
  h.Submit(MakeJob(1, 0.0, 10'000.0, 1'000.0, 5.0, 1'500.0), 0.0);
  h.Submit(MakeJob(2, 0.0, 10'000.0, 1'000.0, 5.0, 1'500.0), 0.0);
  h.Submit(MakeJob(3, 0.0, 1'000.0, 1'000.0, 5.0, 100.0), 0.0);
  h.sim.RunUntil(5.0);
  EXPECT_TRUE(h.queue.Find(1)->placed());
  EXPECT_FALSE(h.queue.Find(2)->placed());
  EXPECT_FALSE(h.queue.Find(3)->placed()) << "FCFS does not backfill";
  h.sim.RunUntil(100.0);
  h.scheduler.AdvanceJobsTo(h.sim.now());
  EXPECT_EQ(h.queue.num_completed(), 3u);
}

TEST(FcfsSchedulerTest, NeverPreempts) {
  Harness h;
  h.Submit(MakeJob(1, 0.0, 50'000.0, 1'000.0, 20.0, 1'500.0), 0.0);
  // Tight-deadline job arrives later; FCFS must not suspend job 1.
  h.Submit(MakeJob(2, 5.0, 1'000.0, 1'000.0, 1.1, 1'500.0), 5.0);
  h.sim.RunUntil(200.0);
  h.scheduler.AdvanceJobsTo(h.sim.now());
  EXPECT_EQ(h.scheduler.changes().suspends, 0);
  EXPECT_EQ(h.scheduler.changes().migrations, 0);
  EXPECT_EQ(h.scheduler.changes().disruptive(), 0);
  EXPECT_EQ(h.queue.num_completed(), 2u);
  // Job 2 had to wait for job 1 (completion at 50 s) and misses its goal.
  EXPECT_GT(*h.queue.Find(2)->completion_time(),
            h.queue.Find(2)->goal().completion_goal);
}

TEST(FcfsSchedulerTest, FirstFitAcrossNodes) {
  Harness h(3);
  for (int j = 1; j <= 3; ++j) {
    h.Submit(MakeJob(j, 0.0, 4'000.0, 1'000.0, 5.0, 1'500.0), 0.0);
  }
  h.sim.RunUntil(1.0);
  EXPECT_EQ(h.queue.Find(1)->node(), 0);
  EXPECT_EQ(h.queue.Find(2)->node(), 1);
  EXPECT_EQ(h.queue.Find(3)->node(), 2);
}

TEST(FcfsSchedulerTest, AllowedNodesMaskRespected) {
  BaselineScheduler::Config cfg;
  cfg.costs = VmCostModel::Free();
  cfg.allowed_nodes = {2};
  Harness h(3, cfg);
  h.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0), 0.0);
  h.sim.RunUntil(1.0);
  EXPECT_EQ(h.queue.Find(1)->node(), 2);
}

TEST(FcfsSchedulerTest, BootCostCharged) {
  BaselineScheduler::Config cfg;
  cfg.costs = VmCostModel::PaperMeasured();
  Harness h(1, cfg);
  h.Submit(MakeJob(1, 0.0, 4'000.0, 1'000.0, 5.0), 0.0);
  h.sim.RunUntil(50.0);
  h.scheduler.AdvanceJobsTo(h.sim.now());
  ASSERT_EQ(h.queue.num_completed(), 1u);
  EXPECT_NEAR(*h.queue.Find(1)->completion_time(), 4.0 + 3.6, 1e-6);
}

// A bad cost model is rejected when the scheduler is built, not when the
// first start charges it.
TEST(FcfsSchedulerTest, InvalidCostModelThrowsAtConstruction) {
  const ClusterSpec cluster = SmallCluster();
  JobQueue queue;
  BaselineScheduler::Config cfg;
  cfg.costs.boot_s = -1.0;
  EXPECT_THROW({ FcfsScheduler s(&cluster, &queue, cfg); },
               std::logic_error);
  cfg.costs.boot_s = 0.0;
  cfg.costs.migrate_s_per_mb = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW({ FcfsScheduler s(&cluster, &queue, cfg); },
               std::logic_error);
}

TEST(FcfsSchedulerTest, DispatchOnCompletionEvent) {
  Harness h;
  h.Submit(MakeJob(1, 0.0, 1'000.0, 1'000.0, 5.0, 1'500.0), 0.0);
  h.Submit(MakeJob(2, 0.0, 1'000.0, 1'000.0, 5.0, 1'500.0), 0.0);
  h.sim.RunUntil(100.0);
  h.scheduler.AdvanceJobsTo(h.sim.now());
  // Job 2 starts the moment job 1 completes (event-driven, not polled).
  EXPECT_NEAR(*h.queue.Find(1)->completion_time(), 1.0, 1e-6);
  EXPECT_NEAR(*h.queue.Find(2)->completion_time(), 2.0, 1e-6);
}

}  // namespace
}  // namespace mwp
