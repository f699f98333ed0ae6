// Experiment Three (§5.3): the transactional (TX) application and the
// long-running (LR) batch workload under three configurations — dynamic APC
// sharing, static 9 TX / 16 LR nodes, static 6 TX / 19 LR. One run of each
// prints Figure 6 (relative performance over time) and Figure 7 (CPU
// allocated to each workload over time).
//
//   ./bench_exp3 [--duration 65000] [--burst-interarrival 180]
//                [--ease-time 42000] [--seed 11] [--bucket 5000] [--csv]
//                [--trace-out exp3.jsonl] [--trace-full] [--run-id exp3-s11]
#include <cmath>
#include <iostream>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "exp/experiment3.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp {
namespace {

/// Per `bucket`-wide window, each configuration's mean TX and LR value of
/// the series `tx` and `lr`.
Table BucketTable(const std::vector<Experiment3Result>& results,
                  Seconds duration, Seconds bucket,
                  TimeSeries Experiment3Result::*tx,
                  TimeSeries Experiment3Result::*lr, int precision) {
  Table t({"time [s]", "APC TX", "APC LR", "9/16 TX", "9/16 LR", "6/19 TX",
           "6/19 LR"});
  for (Seconds time = bucket / 2.0; time < duration; time += bucket) {
    std::vector<std::string> row = {FormatNumber(time, 0)};
    for (const Experiment3Result& r : results) {
      for (const TimeSeries* series : {&(r.*tx), &(r.*lr)}) {
        const double v =
            series->MeanInWindow(time - bucket / 2.0, time + bucket / 2.0);
        row.push_back(std::isnan(v) ? "-" : FormatNumber(v, precision));
      }
    }
    t.AddRow(row);
  }
  return t;
}

}  // namespace
}  // namespace mwp

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;
  Experiment3Config base;
  base.duration = cli.GetDouble("duration", 65'000.0);
  base.burst_interarrival = cli.GetDouble("burst-interarrival", 180.0);
  base.ease_time = cli.GetDouble("ease-time", 42'000.0);
  base.seed = static_cast<std::uint64_t>(cli.GetInt("seed", 11));
  const Seconds bucket = cli.GetDouble("bucket", 5'000.0);
  const bool csv = cli.GetBool("csv", false);
  // Per-cycle traces come from the dynamic-APC run (the static partitions
  // run no control loop).
  const std::string trace_out = cli.GetString("trace-out", "");
  base.trace_full = cli.GetBool("trace-full", false);
  base.trace_run_id =
      cli.GetString("run-id", "exp3-s" + std::to_string(base.seed));
  cli.RejectUnknownFlags();
  obs::TraceRecorder recorder;
  if (!trace_out.empty()) base.trace = &recorder;

  std::vector<Experiment3Result> results;
  for (const Experiment3Mode mode : kExperiment3Modes) {
    Experiment3Config cfg = base;
    cfg.mode = mode;
    results.push_back(RunExperiment3(cfg));
    std::cerr << "  done " << ToString(mode) << " (jobs submitted "
              << results.back().jobs_submitted << ", completed "
              << results.back().jobs_completed << ")\n";
  }
  if (!trace_out.empty() &&
      !obs::ExportTrace(trace_out,
                        obs::MakeTraceContext("experiment3", base.seed,
                                              base.control_cycle,
                                              base.trace_run_id),
                        recorder.Traces())) {
    std::cerr << "Failed to write trace to " << trace_out << '\n';
    return 1;
  }

  std::cout << "Experiment Three / Figure 6: relative performance over time\n"
               "(TX = actual RP of the transactional app; LR = average "
               "hypothetical RP of jobs)\n\n";
  const Table rp = BucketTable(results, base.duration, bucket,
                               &Experiment3Result::tx_rp,
                               &Experiment3Result::batch_rp, 3);
  std::cout << (csv ? rp.ToCsv() : rp.ToText());
  std::cout << "\nExpected shape (paper): APC starts with TX at its 0.66 "
               "ceiling, then equalizes\nTX and LR as jobs queue, and gives "
               "CPU back when submissions ease. The 9/16\nsplit pins TX at "
               "0.66 while LR languishes; the 6/19 split caps TX below its\n"
               "ceiling without clearly helping LR.\n\n";

  std::cout << "Experiment Three / Figure 7: CPU allocation per workload "
               "[MHz]\n\n";
  const Table alloc = BucketTable(results, base.duration, bucket,
                                  &Experiment3Result::tx_alloc,
                                  &Experiment3Result::batch_alloc, 0);
  std::cout << (csv ? alloc.ToCsv() : alloc.ToText());
  std::cout << "\nExpected shape (paper): under APC the TX allocation starts "
               "near its ~130,000 MHz\nsaturation, shrinks as the LR "
               "workload builds (the LR share grows), and recovers\nwhen "
               "submissions ease. Static splits hold both allocations "
               "constant (TX capped at\nits partition's capacity).\n";
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
