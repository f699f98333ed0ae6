// Closed-loop profiling demo.
//
// The paper's system relies on two profilers (§3.1): the *work profiler*
// estimates a web application's CPU demand per request by regressing node
// utilization against throughput, and the *job workload profiler* estimates
// job resource profiles from execution history. The paper lists on-the-fly
// profile generation as future work; this example closes the loop at small
// scale: run jobs whose true cost is hidden, profile them, and show the
// estimates converging to the truth.
//
//   ./profiling_demo [--rounds 8] [--per-round 5] [--trace-out demo.jsonl]
//                    [--trace-full]
#include <iostream>
#include <string>

#include "batch/job_profiler.h"
#include "batch/job_queue.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/apc_controller.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"
#include "sim/simulation.h"
#include "web/work_profiler.h"

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;
  const int rounds = static_cast<int>(cli.GetInt("rounds", 8));
  const int per_round = static_cast<int>(cli.GetInt("per-round", 5));
  // One recorder spans all rounds: each round's controller appends its
  // cycles (the cycle counter restarts per round; each round gets its own
  // run id, so the multi-run header carries none).
  const std::string trace_out = cli.GetString("trace-out", "");
  const bool trace_full = cli.GetBool("trace-full", false);
  cli.RejectUnknownFlags();
  obs::TraceRecorder recorder;

  Rng rng(2026);

  // --- Part 1: the job workload profiler ----------------------------------
  // Ground truth for the "nightly-report" job class; executions vary ±15%.
  const Megacycles true_work = 900'000.0;
  const MHz true_speed = 1'500.0;
  const Megabytes true_memory = 2'048.0;

  const ClusterSpec cluster =
      ClusterSpec::Uniform(2, NodeSpec{2, 1'500.0, 8'192.0});
  JobWorkloadProfiler job_profiler;

  Table job_table({"round", "observations", "est. work [Mc]", "error"});
  AppId next_id = 1;
  for (int round = 0; round < rounds; ++round) {
    JobQueue queue;
    Simulation sim;
    ApcController::Config cfg;
    cfg.control_cycle = 30.0;
    cfg.costs = VmCostModel::Free();
    if (!trace_out.empty()) {
      cfg.trace = &recorder;
      cfg.trace_run_id = "round" + std::to_string(round + 1);
      cfg.trace_full = trace_full;
    }
    ApcController controller(&cluster, &queue, cfg);
    for (int k = 0; k < per_round; ++k) {
      const Megacycles work = true_work * rng.Uniform(0.85, 1.15);
      JobProfile profile =
          JobProfile::SingleStage(work, true_speed, true_memory);
      queue.Submit(std::make_unique<Job>(
          next_id++, "nightly-report", profile,
          JobGoal::FromFactor(0.0, 4.0, profile.min_execution_time())));
    }
    controller.Attach(sim, 0.0);
    sim.RunUntil(per_round * (true_work / true_speed) * 3.0);
    controller.AdvanceJobsTo(sim.now());
    for (const Job* job : queue.Completed()) {
      job_profiler.RecordJob("nightly-report", *job);
    }
    const auto estimate = job_profiler.EstimateProfile("nightly-report");
    job_table.AddRow(
        {FormatNumber(round + 1, 0),
         FormatNumber(job_profiler.ObservationCount("nightly-report"), 0),
         estimate ? FormatNumber(estimate->total_work(), 0) : "-",
         FormatNumber(
             100.0 * job_profiler.WorkEstimateError("nightly-report", true_work),
             2) + "%"});
  }
  if (!trace_out.empty() &&
      !obs::ExportTrace(trace_out,
                        obs::MakeTraceContext("profiling_demo", 2026,
                                              /*control_cycle=*/30.0),
                        recorder.Traces())) {
    std::cerr << "Failed to write trace to " << trace_out << '\n';
    return 1;
  }
  std::cout << "Job workload profiler convergence (true work "
            << FormatNumber(true_work, 0) << " Mc):\n"
            << job_table.ToText() << '\n';

  // --- Part 2: the work profiler -------------------------------------------
  // The router observes per-interval throughput; nodes report CPU consumed.
  const Megacycles true_demand = 7.5;  // Mc per request, hidden from profiler
  WorkProfiler work_profiler(/*forgetting=*/0.98);
  Table web_table({"interval", "throughput [req/s]", "cpu [MHz]",
                   "est. demand [Mc/req]"});
  for (int i = 1; i <= 12; ++i) {
    const double lambda = rng.Uniform(200.0, 1'200.0);
    const double measured_cpu = true_demand * lambda * rng.Uniform(0.95, 1.05);
    work_profiler.Observe(lambda, measured_cpu);
    if (i % 2 == 0) {
      web_table.AddRow({FormatNumber(i, 0), FormatNumber(lambda, 0),
                        FormatNumber(measured_cpu, 0),
                        FormatNumber(work_profiler.EstimateDemandPerRequest(), 3)});
    }
  }
  std::cout << "Work profiler regression (true demand "
            << FormatNumber(true_demand, 2) << " Mc/req):\n"
            << web_table.ToText();
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
