// Integration: the §1 motivating scenario — a transactional application and
// four batch jobs on four machines, with a mid-run intensity surge.
#include <gtest/gtest.h>

#include "batch/job_queue.h"
#include "core/apc_controller.h"
#include "web/workload_generator.h"

namespace mwp {
namespace {

// 4 identical machines; job needs one machine for time t; TA needs 2
// machines' worth at first, then all 4 — §1's worked example, scaled to
// 1,000 MHz machines and t = 100 s.
struct IntroScenario {
  ClusterSpec cluster =
      ClusterSpec::Uniform(4, NodeSpec{1, 1'000.0, 4'000.0});
  JobQueue queue;
  Simulation sim;
  ApcController controller;

  IntroScenario()
      : controller(&cluster, &queue, MakeConfig()) {
    // Four jobs, each 100 s at 1,000 MHz, completion goal 3t = 300 s.
    for (AppId id = 1; id <= 4; ++id) {
      JobProfile p = JobProfile::SingleStage(100'000.0, 1'000.0, 1'000.0);
      queue.Submit(std::make_unique<Job>(
          id, std::string("J").append(std::to_string(id)), p,
          JobGoal::FromFactor(0.0, 3.0, 100.0)));
    }
  }

  static ApcController::Config MakeConfig() {
    ApcController::Config cfg;
    cfg.control_cycle = 10.0;
    cfg.costs = VmCostModel::Free();
    return cfg;
  }
};

TEST(MixedWorkloadIntegrationTest, JobsAloneAllMeetGoals) {
  IntroScenario s;
  s.controller.Attach(s.sim, 0.0);
  s.sim.RunUntil(1'000.0);
  s.controller.AdvanceJobsTo(s.sim.now());
  ASSERT_EQ(s.queue.num_completed(), 4u);
  for (AppId id = 1; id <= 4; ++id) {
    EXPECT_LE(*s.queue.Find(id)->completion_time(), 300.0)
        << "J" << id << " violated its goal";
  }
}

TEST(MixedWorkloadIntegrationTest, ConstantTxLeavesRoomForJobs) {
  IntroScenario s;
  TransactionalAppSpec spec;
  spec.id = 100;
  spec.name = "TA";
  spec.memory_per_instance = 500.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.2;
  spec.saturation_allocation = 2'000.0;  // needs two machines' worth
  s.controller.AddTransactionalApp(spec,
                                   std::make_shared<ConstantRate>(1'500.0));
  s.controller.Attach(s.sim, 0.0);
  s.sim.RunUntil(2'000.0);
  s.controller.AdvanceJobsTo(s.sim.now());

  ASSERT_EQ(s.queue.num_completed(), 4u);
  // With 2 of 4 machines effectively taken by TA, jobs serialize in pairs:
  // completions around t and 2t, all within the 3t goal.
  for (AppId id = 1; id <= 4; ++id) {
    EXPECT_LE(*s.queue.Find(id)->completion_time(), 300.0);
  }
  // TA held near its saturation allocation throughout.
  const CycleStats& mid = s.controller.cycles()[5];
  EXPECT_GT(mid.tx_allocations[0], 1'500.0);
}

TEST(MixedWorkloadIntegrationTest, IntensitySurgeShiftsAllocation) {
  IntroScenario s;
  TransactionalAppSpec spec;
  spec.id = 100;
  spec.name = "TA";
  spec.memory_per_instance = 500.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.2;
  spec.saturation_allocation = 4'000.0;
  // Load doubles at t = 50 (the §1 example's t/2 surge).
  auto profile = std::make_shared<StepRate>(
      std::vector<StepRate::Step>{{0.0, 1'500.0}, {50.0, 3'200.0}});
  s.controller.AddTransactionalApp(spec, profile);
  s.controller.Attach(s.sim, 0.0);
  s.sim.RunUntil(2'000.0);
  s.controller.AdvanceJobsTo(s.sim.now());

  // Allocation to TA after the surge must exceed its pre-surge share.
  MHz before = 0.0, after = 0.0;
  for (const CycleStats& c : s.controller.cycles()) {
    if (c.time < 50.0) before = std::max(before, c.tx_allocations[0]);
    if (c.time >= 60.0 && c.time <= 200.0) {
      after = std::max(after, c.tx_allocations[0]);
    }
  }
  EXPECT_GT(after, before + 500.0);
  // All jobs still complete.
  EXPECT_EQ(s.queue.num_completed(), 4u);
}

TEST(MixedWorkloadIntegrationTest, GoalViolationsAreSpreadNotConcentrated) {
  // Overload the §1 system so that goals cannot all be met: the max-min
  // objective spreads the damage instead of starving one job.
  IntroScenario s;
  TransactionalAppSpec spec;
  spec.id = 100;
  spec.name = "TA";
  spec.memory_per_instance = 500.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.2;
  spec.saturation_allocation = 3'500.0;
  s.controller.AddTransactionalApp(spec,
                                   std::make_shared<ConstantRate>(3'000.0));
  s.controller.Attach(s.sim, 0.0);
  s.sim.RunUntil(3'000.0);
  s.controller.AdvanceJobsTo(s.sim.now());

  ASSERT_EQ(s.queue.num_completed(), 4u);
  Utility worst = 1.0;
  for (AppId id = 1; id <= 4; ++id) {
    worst = std::min(worst, s.queue.Find(id)->achieved_utility());
  }
  // No job is catastrophically starved.
  EXPECT_GT(worst, -1.0);
}

}  // namespace
}  // namespace mwp
