// Multi-stage jobs: the full §4.1 profile model.
//
// Every job in the paper's experiments is single-stage, but the model (and
// this library) supports jobs whose resource usage varies over their life:
// a sequence of stages, each with its own CPU work, speed window and memory
// footprint. This example runs a three-stage ETL-style pipeline — a
// parallel extract phase (high speed cap), a serial transform phase (low
// cap: extra CPU is wasted on it), and a load phase — next to a plain batch
// job, and shows the controller re-fitting the allocation as each job
// crosses a stage boundary.
//
//   ./multistage_pipeline [--horizon 5000]
#include <iostream>
#include <memory>

#include "batch/job_metrics.h"
#include "batch/job_queue.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/apc_controller.h"
#include "sim/simulation.h"

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;
  const Seconds horizon = cli.GetDouble("horizon", 5'000.0);
  cli.RejectUnknownFlags();

  const ClusterSpec cluster =
      ClusterSpec::Uniform(1, NodeSpec{4, 1'000.0, 16'384.0});

  JobQueue queue;
  Simulation sim;
  ApcController::Config cfg;
  cfg.control_cycle = 60.0;
  cfg.costs = VmCostModel::Free();
  cfg.record_job_details = true;
  ApcController controller(&cluster, &queue, cfg);

  // The pipeline: extract (fast, 2 cores' worth), transform (serial,
  // capped at 1 core), load (1.5 cores' worth). Memory grows mid-job.
  JobProfile pipeline({
      JobStage{/*work=*/1'200'000.0, /*max=*/2'000.0, /*min=*/0.0,
               /*mem=*/2'048.0},
      JobStage{/*work=*/600'000.0, /*max=*/1'000.0, /*min=*/0.0,
               /*mem=*/4'096.0},
      JobStage{/*work=*/900'000.0, /*max=*/1'500.0, /*min=*/0.0,
               /*mem=*/3'072.0},
  });
  std::cout << "Pipeline: " << pipeline.num_stages() << " stages, "
            << FormatNumber(pipeline.total_work(), 0) << " Mc total, "
            << FormatNumber(pipeline.min_execution_time(), 0)
            << " s at stage speed caps, peak memory "
            << FormatNumber(pipeline.max_memory(), 0) << " MB\n\n";

  queue.Submit(std::make_unique<Job>(
      1, "etl-pipeline", pipeline,
      JobGoal::FromFactor(0.0, 2.0, pipeline.min_execution_time())));
  // A plain competitor that would happily take the whole node.
  JobProfile plain = JobProfile::SingleStage(4'000'000.0, 4'000.0, 2'048.0);
  queue.Submit(std::make_unique<Job>(
      2, "bulk-compute", plain,
      JobGoal::FromFactor(0.0, 2.0, plain.min_execution_time())));

  controller.Attach(sim, 0.0);
  sim.RunUntil(horizon);
  controller.AdvanceJobsTo(sim.now());

  Table t({"time [s]", "ETL stage", "ETL alloc [MHz]", "ETL done [Mc]",
           "bulk alloc [MHz]", "node use [MHz]"});
  for (const CycleStats& c : controller.cycles()) {
    if (static_cast<int>(c.time) % 300 != 0) continue;
    const JobCycleDetail* etl = nullptr;
    const JobCycleDetail* bulk = nullptr;
    for (const JobCycleDetail& d : c.job_details) {
      if (d.id == 1) etl = &d;
      if (d.id == 2) bulk = &d;
    }
    // Stage at the cycle's start, from the recorded progress; jobs absent
    // from the cycle's details have completed.
    const int stage =
        etl != nullptr ? pipeline.StageAt(etl->work_done) : pipeline.num_stages();
    t.AddRow({FormatNumber(c.time, 0),
              stage >= pipeline.num_stages() ? "done"
                                             : std::to_string(stage + 1),
              etl != nullptr ? FormatNumber(etl->allocation, 0) : "-",
              etl != nullptr ? FormatNumber(etl->work_done, 0) : "-",
              bulk != nullptr ? FormatNumber(bulk->allocation, 0) : "-",
              FormatNumber(c.batch_allocation, 0)});
  }
  std::cout << t.ToText() << '\n';

  Table outcomes({"job", "completed [s]", "goal [s]", "RP"});
  for (const JobOutcomeRecord& r : CollectOutcomes(queue)) {
    outcomes.AddRow({r.id == 1 ? "etl-pipeline" : "bulk-compute",
                     FormatNumber(r.completion_time, 0),
                     FormatNumber(r.completion_goal, 0),
                     FormatNumber(r.achieved_utility, 3)});
  }
  std::cout << outcomes.ToText();
  std::cout << "\nNote how the ETL job's allocation drops at stage 2 (its "
               "speed cap binds) and the\nfreed CPU flows to the bulk job — "
               "per-stage caps are honoured by the distributor.\n";
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
