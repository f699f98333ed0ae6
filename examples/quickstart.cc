// Quickstart: the smallest end-to-end use of the library.
//
// Builds a four-node cluster, registers one transactional web application
// with a response-time goal, submits a handful of batch jobs with
// completion-time goals, runs the APC control loop, and prints what
// happened: per-cycle relative performance of both workloads and the final
// job outcomes.
//
//   ./quickstart [--nodes 4] [--jobs 6] [--horizon 4000]
#include <cstdio>
#include <iostream>
#include <memory>

#include "batch/job_queue.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/apc_controller.h"
#include "batch/job_metrics.h"
#include "sim/simulation.h"
#include "web/workload_generator.h"

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;
  const int nodes = static_cast<int>(cli.GetInt("nodes", 4));
  const int num_jobs = static_cast<int>(cli.GetInt("jobs", 6));
  const Seconds horizon = cli.GetDouble("horizon", 4'000.0);
  cli.RejectUnknownFlags();

  // 1. Describe the hardware: four 2-core 1.5 GHz machines with 8 GB each.
  const ClusterSpec cluster =
      ClusterSpec::Uniform(nodes, NodeSpec{2, 1'500.0, 8'192.0});

  // 2. Create the controller with a 60 s control cycle and the measured
  //    virtualization costs from the paper.
  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 60.0;
  cfg.costs = VmCostModel::PaperMeasured();
  ApcController controller(&cluster, &queue, cfg);

  // 3. One transactional application: 0.5 s mean response time goal,
  //    ~2 nodes' CPU at saturation, constant 800 req/s intensity.
  TransactionalAppSpec web;
  web.id = 1;
  web.name = "storefront";
  web.memory_per_instance = 1'024.0;
  web.response_time_goal = 0.5;
  web.demand_per_request = 5.0;        // megacycles per request
  web.min_response_time = 0.15;
  web.saturation_allocation = 6'000.0; // MHz
  controller.AddTransactionalApp(web, std::make_shared<ConstantRate>(800.0));

  // 4. Submit batch jobs: 20-minute analytics runs with a 2.5x relative
  //    completion goal, arriving three minutes apart.
  for (int i = 0; i < num_jobs; ++i) {
    const Seconds submit = 180.0 * i;
    sim.ScheduleAt(submit, [&queue, &controller, i](Simulation& s) {
      JobProfile profile = JobProfile::SingleStage(
          /*work=*/1'200.0 * 1'500.0, /*max_speed=*/1'500.0,
          /*memory=*/2'048.0);
      queue.Submit(std::make_unique<Job>(
          100 + i, "analytics-" + std::to_string(i), profile,
          JobGoal::FromFactor(s.now(), 2.5, profile.min_execution_time())));
      controller.OnJobSubmitted(s);
    });
  }

  // 5. Run.
  controller.Attach(sim, 0.0);
  sim.RunUntil(horizon);
  controller.AdvanceJobsTo(sim.now());

  // 6. Report: relative performance 0 == goal met exactly; >0 exceeded.
  Table cycles({"time [s]", "web RP", "web resp [s]", "web MHz", "batch RP",
                "batch MHz", "running", "queued"});
  for (const CycleStats& c : controller.cycles()) {
    if (static_cast<int>(c.time) % 300 != 0) continue;  // thin the output
    cycles.AddNumericRow({c.time, c.tx_utilities.at(0),
                          c.tx_response_times.at(0), c.tx_allocations.at(0),
                          c.avg_job_rp, c.batch_allocation,
                          static_cast<double>(c.running_jobs),
                          static_cast<double>(c.queued_jobs)});
  }
  std::cout << "Control-cycle history (every 5 minutes):\n"
            << cycles.ToText() << '\n';

  Table outcomes(
      {"job", "submitted [s]", "completed [s]", "goal [s]", "RP at completion"});
  for (const JobOutcomeRecord& r : CollectOutcomes(queue)) {
    outcomes.AddNumericRow({static_cast<double>(r.id), r.submit_time,
                            r.completion_time, r.completion_goal,
                            r.achieved_utility});
  }
  std::cout << "Job outcomes (" << queue.num_completed() << "/" << num_jobs
            << " completed):\n"
            << outcomes.ToText();
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
