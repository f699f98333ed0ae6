// Experiment Two (§5.2): APC vs EDF vs FCFS on a heterogeneous batch-only
// workload across a sweep of mean inter-arrival times. One sweep prints
// Figure 3 (% of jobs meeting their goal), Figure 4 (disruptive placement
// changes) and, per swept inter-arrival, a Figure 5 block (distance to the
// goal at completion, per goal factor; the paper shows 200 s and 50 s).
//
//   ./bench_exp2 [--jobs 800] [--interarrivals 400,350,300,250,200,150,100,50]
//                [--seed 7] [--csv] [--trace-out exp2.jsonl] [--trace-full]
#include <iostream>
#include <iterator>
#include <sstream>

#include "common/cli.h"
#include "common/table.h"
#include "exp/experiment2.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp {
namespace {

std::vector<double> ParseList(const std::string& csv_list) {
  std::vector<double> out;
  std::stringstream ss(csv_list);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

void PrintFigure3(const std::vector<Experiment2Point>& sweep, int jobs,
                  bool csv) {
  std::cout << "Experiment Two / Figure 3: % of jobs meeting their "
               "completion-time goal\n("
            << jobs << " completions per point; same workload sequence for "
               "all schedulers)\n\n";
  Table t({"inter-arrival [s]", "FCFS", "EDF", "APC"});
  for (const Experiment2Point& point : sweep) {
    std::vector<std::string> row = {FormatNumber(point.mean_interarrival, 0)};
    for (auto kind :
         {SchedulerKind::kFcfs, SchedulerKind::kEdf, SchedulerKind::kApc}) {
      row.push_back(
          FormatNumber(100.0 * point.at(kind).deadline_satisfaction, 1) + "%");
    }
    t.AddRow(row);
  }
  std::cout << (csv ? t.ToCsv() : t.ToText());
  std::cout << "\nExpected shape (paper): all comparable above ~150 s; FCFS "
               "collapses to ~40-50%\nby 50 s while EDF and APC stay high "
               "and comparable.\n";
}

void PrintFigure4(const std::vector<Experiment2Point>& sweep, bool csv) {
  std::cout << "Experiment Two / Figure 4: disruptive placement changes "
               "(suspend + resume + migrate)\n\n";
  Table t({"inter-arrival [s]", "FCFS", "EDF", "APC", "EDF detail (s/r/m)",
           "APC detail (s/r/m)"});
  for (const Experiment2Point& point : sweep) {
    std::vector<std::string> row = {FormatNumber(point.mean_interarrival, 0)};
    for (auto kind :
         {SchedulerKind::kFcfs, SchedulerKind::kEdf, SchedulerKind::kApc}) {
      row.push_back(FormatNumber(point.at(kind).disruptive_changes, 0));
    }
    for (auto kind : {SchedulerKind::kEdf, SchedulerKind::kApc}) {
      const SchedulerChangeCounts& c = point.at(kind).changes;
      row.push_back(FormatNumber(c.suspends, 0) + "/" +
                    FormatNumber(c.resumes, 0) + "/" +
                    FormatNumber(c.migrations, 0));
    }
    t.AddRow(row);
  }
  std::cout << (csv ? t.ToCsv() : t.ToText());
  std::cout << "\nExpected shape (paper): FCFS = 0 everywhere; EDF grows "
               "steeply once the\ninter-arrival time drops to 150 s or less; "
               "APC makes many fewer changes than EDF.\n";
}

void PrintFigure5(const std::vector<Experiment2Point>& sweep, bool csv) {
  std::cout << "Experiment Two / Figure 5: distance to the goal at "
               "completion time [s]\n(positive = early; grouped by relative "
               "goal factor)\n\n";
  for (const Experiment2Point& point : sweep) {
    std::cout << "--- mean inter-arrival "
              << FormatNumber(point.mean_interarrival, 0) << " s ---\n";
    Table t({"scheduler", "factor", "n", "min", "p10", "median", "p90", "max",
             "spread (p90-p10)"});
    for (auto kind :
         {SchedulerKind::kApc, SchedulerKind::kEdf, SchedulerKind::kFcfs}) {
      for (double factor : {1.3, 2.5, 4.0}) {
        const Sample d =
            DistanceSample(FilterByGoalFactor(point.at(kind).outcomes, factor));
        if (d.empty()) continue;
        t.AddRow({ToString(kind), FormatNumber(factor, 1),
                  FormatNumber(static_cast<double>(d.count()), 0),
                  FormatNumber(d.min(), 0), FormatNumber(d.Percentile(10.0), 0),
                  FormatNumber(d.median(), 0),
                  FormatNumber(d.Percentile(90.0), 0), FormatNumber(d.max(), 0),
                  FormatNumber(d.Percentile(90.0) - d.Percentile(10.0), 0)});
      }
    }
    std::cout << (csv ? t.ToCsv() : t.ToText()) << '\n';
  }
  std::cout << "Expected shape (paper): at 200 s all three algorithms form "
               "tight clusters per\nfactor; at 50 s APC's distances cluster "
               "more tightly than EDF's (smallest spread\nfor factor 1.3), "
               "showing APC equalizes satisfaction across jobs.\n";
}

}  // namespace
}  // namespace mwp

int main(int argc, char** argv) {
  using namespace mwp;
  const CommandLine cli(argc, argv);
  Experiment2Config base;
  base.completed_jobs_target = static_cast<int>(cli.GetInt("jobs", 800));
  const std::vector<Seconds> interarrivals =
      cli.Has("interarrivals")
          ? ParseList(cli.GetString("interarrivals", ""))
          : std::vector<Seconds>(std::begin(kExperiment2Interarrivals),
                                 std::end(kExperiment2Interarrivals));
  base.seed = static_cast<std::uint64_t>(cli.GetInt("seed", 7));
  const bool csv = cli.GetBool("csv", false);
  // One recorder spans the whole sweep: the APC runs' cycle traces are
  // concatenated in sweep order (each run restarts its cycle counter and is
  // tagged with a per-run id like "ia200"; the sweep header carries none).
  const std::string trace_out = cli.GetString("trace-out", "");
  base.trace_full = cli.GetBool("trace-full", false);
  cli.RejectUnknownFlags();
  obs::TraceRecorder recorder;
  if (!trace_out.empty()) base.trace = &recorder;

  const std::vector<Experiment2Point> sweep =
      RunExperiment2Sweep(base, interarrivals);
  if (!trace_out.empty() &&
      !obs::ExportTrace(trace_out,
                        obs::MakeTraceContext("experiment2", base.seed,
                                              base.control_cycle),
                        recorder.Traces())) {
    std::cerr << "Failed to write trace to " << trace_out << '\n';
    return 1;
  }
  PrintFigure3(sweep, base.completed_jobs_target, csv);
  std::cout << '\n';
  PrintFigure4(sweep, csv);
  std::cout << '\n';
  PrintFigure5(sweep, csv);
  return 0;
}
