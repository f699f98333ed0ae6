// Batch scheduling comparison: APC vs EDF vs FCFS on one mixed workload.
//
// Runs the Experiment Two machinery at a configurable (default small) scale
// and prints, per scheduler: deadline satisfaction, placement-change
// breakdown and the distance-to-goal distribution — a miniature of the
// paper's Figures 3–5.
//
//   ./batch_scheduling [--jobs 120] [--interarrival 150] [--seed 7]
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "exp/experiment2.h"

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;

  Experiment2Config base;
  base.num_nodes = static_cast<int>(cli.GetInt("nodes", 8));
  base.completed_jobs_target = static_cast<int>(cli.GetInt("jobs", 120));
  base.mean_interarrival = cli.GetDouble("interarrival", 150.0);
  base.seed = cli.GetSeed(7);
  cli.RejectUnknownFlags();

  std::cout << "Workload: " << base.completed_jobs_target
            << " completions, mean inter-arrival " << base.mean_interarrival
            << " s, " << base.num_nodes << " nodes (goal factors "
            << "{1.3, 2.5, 4.0} @ {10%, 30%, 60%})\n\n";

  Table summary({"scheduler", "deadline satisfaction", "starts", "suspends",
                 "resumes", "migrations", "makespan [s]"});
  Table dist({"scheduler", "min dist [s]", "p10", "median", "p90", "max"});

  for (auto kind :
       {SchedulerKind::kApc, SchedulerKind::kEdf, SchedulerKind::kFcfs}) {
    Experiment2Config cfg = base;
    cfg.scheduler = kind;
    const Experiment2Result r = RunExperiment2(cfg);
    summary.AddRow({ToString(kind),
                    FormatNumber(100.0 * r.deadline_satisfaction, 1) + "%",
                    FormatNumber(r.changes.starts, 0),
                    FormatNumber(r.changes.suspends, 0),
                    FormatNumber(r.changes.resumes, 0),
                    FormatNumber(r.changes.migrations, 0),
                    FormatNumber(r.end_time, 0)});
    const Sample d = DistanceSample(r.outcomes);
    dist.AddRow({ToString(kind), FormatNumber(d.min(), 0),
                 FormatNumber(d.Percentile(10.0), 0),
                 FormatNumber(d.median(), 0),
                 FormatNumber(d.Percentile(90.0), 0),
                 FormatNumber(d.max(), 0)});
  }

  std::cout << summary.ToText() << '\n'
            << "Distance to the completion-time goal at completion\n"
            << "(positive = finished early):\n"
            << dist.ToText();
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
