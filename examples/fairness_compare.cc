// Fairness-objective comparison on the Experiment-1 workload (§5.1 setup,
// docs/ALGORITHMS.md §16).
//
// Runs the same long-horizon Experiment-1 job stream three times — under the
// paper's lexicographic max-min, under Karma credits, and under proportional
// fairness — and prints the relative-performance trajectories side by side:
// the per-bucket average hypothetical RP of each run, then a summary of the
// completion-time RP distribution and the placement churn each objective
// paid for it. Shrinking --interarrival below the service rate creates the
// sustained contention where the objectives actually diverge.
//
// By default the job stream draws from Experiment Two's goal-factor mixture:
// on Experiment One's *identical* jobs all three objectives provably
// coincide (symmetric tenants accrue symmetric Karma credits, and with equal
// utilities the log-sum ordering reduces to the max-min one). Pass
// --identical to see that coincidence directly.
//
//   ./fairness_compare [--jobs 120] [--nodes 4] [--interarrival 170]
//                      [--cycle 600] [--seed 42] [--bucket 10000]
//                      [--identical] [--csv]
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/fairness_objective.h"
#include "exp/experiment1.h"

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;
  Experiment1Config base;
  base.num_jobs = static_cast<int>(cli.GetInt("jobs", 120));
  base.num_nodes = static_cast<int>(cli.GetInt("nodes", 4));
  // 4 nodes serve one Experiment-1 job per ~17,600/12 s ≈ 1,467 s of queue
  // drain per job-slot; the default inter-arrival keeps the queue loaded so
  // fairness decisions matter for most of the horizon.
  base.mean_interarrival = cli.GetDouble("interarrival", 170.0);
  base.control_cycle = cli.GetDouble("cycle", 600.0);
  base.seed = static_cast<std::uint64_t>(cli.GetInt("seed", 42));
  base.horizon_factor = cli.GetDouble("horizon-factor", 4.0);
  base.mixed_goal_factors = !cli.GetBool("identical", false);
  const Seconds bucket = cli.GetDouble("bucket", 10'000.0);
  const bool csv = cli.GetBool("csv", false);
  cli.RejectUnknownFlags();

  const std::vector<FairnessObjectiveKind> kinds = {
      FairnessObjectiveKind::kMaxMin,
      FairnessObjectiveKind::kKarma,
      FairnessObjectiveKind::kProportionalFairness,
  };

  std::cout << "Fairness objectives on the Experiment-1 harness: "
            << base.num_jobs
            << (base.mixed_goal_factors ? " mixed-goal jobs (Experiment Two "
                                          "mixture)"
                                        : " identical jobs")
            << " on " << base.num_nodes << " nodes, mean inter-arrival "
            << base.mean_interarrival << " s, cycle " << base.control_cycle
            << " s\n\n";

  std::vector<Experiment1Result> results;
  std::vector<TimeSeries> trajectories;
  for (const FairnessObjectiveKind kind : kinds) {
    Experiment1Config cfg = base;
    cfg.objective.kind = kind;
    results.push_back(RunExperiment1(cfg));
    trajectories.push_back(results.back().hypothetical_rp.Bucketed(bucket));
  }

  // RP trajectories side by side. Buckets are aligned: all three runs see
  // the identical arrival schedule, so cycle instants coincide.
  Table t({"time [s]", "maxmin RP", "karma RP", "pf RP"});
  const std::size_t rows = trajectories[0].points().size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    row.push_back(FormatNumber(trajectories[0].points()[i].time, 0));
    for (const TimeSeries& series : trajectories) {
      row.push_back(i < series.points().size()
                        ? FormatNumber(series.points()[i].value, 3)
                        : "-");
    }
    t.AddRow(row);
  }
  std::cout << (csv ? t.ToCsv() : t.ToText()) << '\n';

  Table summary({"objective", "completed", "RP mean", "RP min", "RP stddev",
                 "disruptive changes"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const Experiment1Result& r = results[k];
    RunningStats rp;
    for (const JobOutcomeRecord& o : r.outcomes) rp.Add(o.achieved_utility);
    summary.AddRow({FairnessObjectiveName(kinds[k]),
                    std::to_string(r.completed), FormatNumber(rp.mean(), 3),
                    FormatNumber(rp.min(), 3), FormatNumber(rp.stddev(), 3),
                    std::to_string(r.disruptive_changes)});
  }
  std::cout << (csv ? summary.ToCsv() : summary.ToText());
  std::cout << "\nReading the table: max-min lifts the single worst job; "
               "Karma additionally\nrepays jobs that waited longest "
               "(watch the RP min and stddev); proportional\nfairness "
               "trades the worst case for the best aggregate of logs.\n";
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
