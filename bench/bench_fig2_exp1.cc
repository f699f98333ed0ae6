// Table 2 / Figure 2 (§5.1): relative performance prediction accuracy.
//
// 800 identical jobs (Table 2) on 25 nodes, Poisson arrivals (mean 260 s),
// control cycle 600 s. Prints the two series of Figure 2 — the average
// hypothetical RP per cycle and the actual RP achieved at completion —
// bucketed over time, plus the §5.1 claims: the 0.63 ceiling, the absence
// of disruptive placement changes, and the per-cycle solver time.
//
//   ./bench_fig2_exp1 [--jobs 800] [--nodes 25] [--interarrival 260]
//                     [--trace-out exp1.jsonl] [--trace-full]
//                     [--run-id exp1-s42] [--shard-cell-size 0]
//                     [--objective maxmin|karma|pf]
//
// --shard-cell-size N > 0 runs the control loop on the sharded cell-based
// optimizer (docs/ALGORITHMS.md §13) — the scale-test path for hundreds of
// nodes, e.g. --nodes 100 --shard-cell-size 25.
//
// --objective selects the fairness objective the control loop optimizes
// (docs/ALGORITHMS.md §16): the paper's lexicographic max-min (default),
// Karma credits, or proportional fairness. The objective id travels in
// --trace-full exports, so replays reproduce non-default runs faithfully.
#include <iostream>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "core/fairness_objective.h"
#include "exp/experiment1.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

int main(int argc, char** argv) {
  using namespace mwp;
  const CommandLine cli(argc, argv);
  Experiment1Config cfg;
  cfg.num_jobs = static_cast<int>(cli.GetInt("jobs", 800));
  cfg.num_nodes = static_cast<int>(cli.GetInt("nodes", 25));
  cfg.mean_interarrival = cli.GetDouble("interarrival", 260.0);
  cfg.control_cycle = cli.GetDouble("cycle", 600.0);
  cfg.seed = static_cast<std::uint64_t>(cli.GetInt("seed", 42));
  cfg.shard_cell_size = static_cast<int>(cli.GetInt("shard-cell-size", 0));
  const std::string objective_name = cli.GetString("objective", "maxmin");
  if (const auto kind = ParseFairnessObjective(objective_name)) {
    cfg.objective.kind = *kind;
  } else {
    std::cerr << "unknown --objective '" << objective_name
              << "' (expected maxmin, karma or pf)\n";
    return 1;
  }
  const bool csv = cli.GetBool("csv", false);
  const Seconds bucket = cli.GetDouble("bucket", 10'000.0);
  const std::string trace_out = cli.GetString("trace-out", "");
  // --trace-full embeds the optimizer input/decision in every cycle record
  // so the export can be re-run through replay_apc.
  const bool trace_full = cli.GetBool("trace-full", false);
  const std::string run_id =
      cli.GetString("run-id", "exp1-s" + std::to_string(cfg.seed));
  cli.RejectUnknownFlags();
  obs::TraceRecorder recorder;
  if (!trace_out.empty()) {
    cfg.trace = &recorder;
    cfg.trace_run_id = run_id;
    cfg.trace_full = trace_full;
  }

  std::cout << "Experiment One: " << cfg.num_jobs << " identical jobs "
            << "(68,640,000 Mc @ 3,900 MHz, 4,320 MB, goal factor 2.7) on "
            << cfg.num_nodes << " nodes; mean inter-arrival "
            << cfg.mean_interarrival << " s; cycle " << cfg.control_cycle
            << " s; objective " << FairnessObjectiveName(cfg.objective.kind)
            << "\n\n";

  const Experiment1Result r = RunExperiment1(cfg);

  if (!trace_out.empty()) {
    const auto traces = recorder.Traces();
    if (obs::ExportTrace(trace_out,
                         obs::MakeTraceContext("experiment1", cfg.seed,
                                               cfg.control_cycle, run_id),
                         traces)) {
      std::cout << "Wrote " << traces.size() << " cycle traces to "
                << trace_out << "\n\n";
    } else {
      std::cerr << "Failed to write trace to " << trace_out << '\n';
      return 1;
    }
  }

  const TimeSeries hyp = r.hypothetical_rp.Bucketed(bucket);
  const TimeSeries act = r.completion_rp.Bucketed(bucket);
  Table t({"time [s]", "avg hypothetical RP", "RP at completion"});
  std::size_t ai = 0;
  for (const auto& p : hyp.points()) {
    // Align the completion series to the same buckets.
    std::string actual = "-";
    while (ai < act.points().size() &&
           act.points()[ai].time < p.time - bucket / 2.0) {
      ++ai;
    }
    if (ai < act.points().size() &&
        act.points()[ai].time <= p.time + bucket / 2.0) {
      actual = FormatNumber(act.points()[ai].value, 3);
    }
    t.AddRow({FormatNumber(p.time, 0), FormatNumber(p.value, 3), actual});
  }
  std::cout << (csv ? t.ToCsv() : t.ToText()) << '\n';

  Table claims({"claim (§5.1)", "paper", "measured"});
  claims.AddRow({"jobs completed", std::to_string(cfg.num_jobs),
                 std::to_string(r.completed)});
  claims.AddRow({"max hypothetical RP", "0.63",
                 FormatNumber(
                     [&] {
                       double mx = -1e9;
                       for (const auto& p : r.hypothetical_rp.points())
                         mx = std::max(mx, p.value);
                       return mx;
                     }(),
                     3)});
  claims.AddRow({"disruptive placement changes", "0",
                 std::to_string(r.disruptive_changes)});
  claims.AddRow({"solver time per cycle [s]", "~1.5 (2008 hardware)",
                 FormatNumber(r.solver_seconds.mean(), 4) + " avg / " +
                     FormatNumber(r.solver_seconds.max(), 4) + " max"});
  std::cout << claims.ToText();
  std::cout << "\nExpected shape: hypothetical RP plateaus at 0.63, dips when "
               "queueing builds,\nand the completion-time series repeats the "
               "same shape shifted right by ~18,000 s.\n";
  return 0;
}
