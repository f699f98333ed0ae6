// Resource sharing under a transactional surge — the paper's §1 story.
//
// A transactional application and a stream of batch jobs share a small
// cluster. Mid-run the web workload's intensity doubles; watch the APC
// take CPU away from the batch workload (suspending jobs if necessary) and
// return it once the surge passes, keeping the two workloads' relative
// performance equalized throughout.
//
//   ./resource_sharing [--nodes 6] [--surge-at 3000] [--surge-end 9000]
#include <iostream>
#include <memory>

#include "batch/job_queue.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/apc_controller.h"
#include "batch/job_metrics.h"
#include "sim/simulation.h"
#include "web/queuing_model.h"
#include "web/workload_generator.h"

int main(int argc, char** argv) {
  using namespace mwp;
  const CommandLine cli(argc, argv);
  const int nodes = static_cast<int>(cli.GetInt("nodes", 4));
  const Seconds surge_at = cli.GetDouble("surge-at", 3'000.0);
  const Seconds surge_end = cli.GetDouble("surge-end", 9'000.0);
  const Seconds horizon = cli.GetDouble("horizon", 15'000.0);
  cli.RejectUnknownFlags();

  const ClusterSpec cluster =
      ClusterSpec::Uniform(nodes, NodeSpec{4, 2'000.0, 16'384.0});

  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 300.0;
  cfg.costs = VmCostModel::PaperMeasured();
  ApcController controller(&cluster, &queue, cfg);

  // Web app calibrated so the surge bites: at the base rate its stability
  // boundary sits at 45% of the 20,000 MHz saturation; the surge doubles
  // the rate, pushing the boundary to 18,000 MHz — right where the batch
  // workload's pressure leaves it. The controller must then trade the two
  // workloads' relative performance off explicitly.
  const QueuingModel base_model = QueuingModel::Calibrate(
      /*arrival_rate=*/100.0, /*response_goal=*/1.0, /*max_utility=*/0.7,
      /*saturation=*/20'000.0, /*stability_fraction=*/0.45);
  TransactionalAppSpec web;
  web.id = 1;
  web.name = "frontend";
  web.memory_per_instance = 1'024.0;
  web.response_time_goal = base_model.params().response_time_goal;
  web.demand_per_request = base_model.params().demand_per_request;
  web.min_response_time = base_model.params().min_response_time;
  web.saturation_allocation = base_model.params().saturation_allocation;
  auto rate = std::make_shared<StepRate>(std::vector<StepRate::Step>{
      {0.0, 100.0}, {surge_at, 200.0}, {surge_end, 100.0}});
  controller.AddTransactionalApp(web, rate);

  // Batch stream: one 30-minute job every 5 minutes, goal factor 3 —
  // a steady ~12,000 MHz of demand plus queueing.
  for (int i = 0; i < 40; ++i) {
    sim.ScheduleAt(300.0 * i, [&queue, &controller, i](Simulation& s) {
      JobProfile profile = JobProfile::SingleStage(
          /*work=*/1'800.0 * 2'000.0, /*max_speed=*/2'000.0,
          /*memory=*/4'096.0);
      queue.Submit(std::make_unique<Job>(
          100 + i, "batch-" + std::to_string(i), profile,
          JobGoal::FromFactor(s.now(), 3.0, profile.min_execution_time())));
      controller.OnJobSubmitted(s);
    });
  }

  controller.Attach(sim, 0.0);
  sim.RunUntil(horizon);
  controller.AdvanceJobsTo(sim.now());

  Table t({"time [s]", "phase", "web RP", "web MHz", "batch RP", "batch MHz",
           "running", "queued", "susp"});
  for (const CycleStats& c : controller.cycles()) {
    const char* phase = c.time < surge_at        ? "base"
                        : c.time < surge_end     ? "SURGE"
                                                 : "recovered";
    t.AddRow({FormatNumber(c.time, 0), phase,
              FormatNumber(c.tx_utilities.at(0), 3),
              FormatNumber(c.tx_allocations.at(0), 0),
              FormatNumber(c.avg_job_rp, 3),
              FormatNumber(c.batch_allocation, 0),
              FormatNumber(c.running_jobs, 0), FormatNumber(c.queued_jobs, 0),
              FormatNumber(c.suspended_jobs, 0)});
  }
  std::cout << t.ToText() << '\n';

  const auto outcomes = CollectOutcomes(queue);
  std::cout << "Jobs completed: " << outcomes.size() << "; deadline hits: "
            << FormatNumber(100.0 * DeadlineSatisfaction(outcomes), 1)
            << "%\n";
  return 0;
}
