// Node-failure recovery: the resilience story (Experiment 4).
//
// A small cluster runs checkpointed batch jobs next to a transactional
// application while a seeded fault plan crashes nodes mid-run — first a
// batch-side node, then (where the arrangement has one) the static TX
// partition. The same plan is injected under three management policies:
// the APC with its out-of-band repair cycles, a static partition, and a
// whole-cluster EDF batch scheduler. The run prints each policy's fault
// trace, per-outage recovery record, and the headline comparison:
// time-to-recover, checkpoint work lost, and SLA violations during outages.
//
//   ./node_failure_recovery [--seed 17] [--nodes 6] [--jobs 6]
//                           [--duration 2000] [--trace]
//                           [--trace-out exp4.jsonl] [--trace-full]
//                           [--run-id exp4-s17]
#include <iostream>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "exp/experiment4.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;

  Experiment4Config base;
  base.seed = cli.GetSeed(base.seed);
  base.num_nodes = static_cast<int>(cli.GetInt("nodes", base.num_nodes));
  base.num_jobs = static_cast<int>(cli.GetInt("jobs", base.num_jobs));
  base.duration = cli.GetDouble("duration", base.duration);
  const bool show_trace = cli.GetBool("trace", false);
  // Per-cycle traces come from the dynamic-APC run (the other policies run
  // no control loop).
  const std::string trace_out = cli.GetString("trace-out", "");
  const bool trace_full = cli.GetBool("trace-full", false);
  const std::string run_id =
      cli.GetString("run-id", "exp4-s" + std::to_string(base.seed));
  cli.RejectUnknownFlags();
  obs::TraceRecorder recorder;

  const Experiment4Mode modes[] = {Experiment4Mode::kDynamicApc,
                                   Experiment4Mode::kStaticPartition,
                                   Experiment4Mode::kEdfScheduler};

  Table summary({"policy", "recovered", "TTR mean [s]", "TTR max [s]",
                 "work lost [Mc]", "SLA misses", "jobs done"});
  for (const Experiment4Mode mode : modes) {
    Experiment4Config config = base;
    config.mode = mode;
    config.fault_plan = MakeExperiment4FaultPlan(config);
    if (!trace_out.empty() && mode == Experiment4Mode::kDynamicApc) {
      config.trace = &recorder;
      config.trace_run_id = run_id;
      config.trace_full = trace_full;
    }
    const Experiment4Result r = RunExperiment4(config);

    std::cout << "=== " << ToString(mode) << " ===\n";
    if (show_trace) {
      for (const std::string& line : r.fault_trace) {
        std::cout << "  " << line << '\n';
      }
    }
    Table outages({"node", "crashed [s]", "recovered [s]", "TTR [s]",
                   "jobs hit", "work lost [Mc]", "SLA misses"});
    for (const OutageRecord& o : r.outages) {
      outages.AddNumericRow({static_cast<double>(o.node), o.crash_time,
                             o.recovered_time, o.time_to_recover(),
                             static_cast<double>(o.jobs_crashed),
                             o.batch_work_lost,
                             static_cast<double>(o.sla_violations)});
    }
    std::cout << outages.ToText() << '\n';

    summary.AddRow(
        {ToString(mode), r.all_recovered ? "yes" : "NO",
         FormatNumber(r.time_to_recover.mean(), 1),
         FormatNumber(r.time_to_recover.max(), 1),
         FormatNumber(r.work_lost, 0),
         FormatNumber(r.sla_violations, 0),
         FormatNumber(static_cast<double>(r.jobs_completed), 0) + "/" +
             FormatNumber(static_cast<double>(r.jobs_submitted), 0)});
  }

  if (!trace_out.empty() &&
      !obs::ExportTrace(trace_out,
                        obs::MakeTraceContext("experiment4", base.seed,
                                              base.control_cycle, run_id),
                        recorder.Traces())) {
    std::cerr << "Failed to write trace to " << trace_out << '\n';
    return 1;
  }
  std::cout << "Recovery comparison under the identical fault plan (seed "
            << base.seed << "):\n"
            << summary.ToText();
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
