// Table 1 / Figure 1 (§4.3): the illustrative hypothetical-RP example.
//
// Reproduces the cycle-by-cycle boxes of Figure 1 for both scenarios: each
// job's outstanding/done work, the hypothetical relative performance the
// algorithm computes for the chosen placement, and the interpolated future
// speed — the four numbers in every box of the paper's figure.
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "exp/example_4_3.h"

int main(int argc, char** argv) {
  using namespace mwp;
  const CommandLine cli(argc, argv);
  const int cycles = static_cast<int>(cli.GetInt("cycles", 10));
  const bool csv = cli.GetBool("csv", false);
  cli.RejectUnknownFlags();

  std::cout << "=== Table 1: system properties ===\n";
  Table props({"job", "start [s]", "max speed [MHz]", "mem [MB]",
               "work [Mc]", "min exec [s]", "goal factor S1", "goal factor S2"});
  props.AddRow({"J1", "0", "1000", "750", "4000", "4", "5", "5"});
  props.AddRow({"J2", "1", "500", "750", "2000", "4", "4", "3"});
  props.AddRow({"J3", "2", "500", "750", "4000", "8", "1", "1"});
  std::cout << props.ToText() << '\n';

  for (int scenario : {1, 2}) {
    const Example43Result result =
        RunExample43({.scenario = scenario, .cycles = cycles});
    std::cout << "=== Figure 1, Scenario " << scenario
              << ": cycle-by-cycle boxes ===\n";
    Table t({"cycle", "t [s]", "job", "outstanding [Mc]", "done [Mc]",
             "placed", "alloc [MHz]", "hyp RP", "future speed [MHz]"});
    int cycle_no = 0;
    for (const CycleStats& c : result.cycles) {
      ++cycle_no;
      for (const JobCycleDetail& d : c.job_details) {
        t.AddRow({FormatNumber(cycle_no, 0), FormatNumber(c.time, 0),
                  "J" + std::to_string(d.id), FormatNumber(d.outstanding, 0),
                  FormatNumber(d.work_done, 0), d.placed ? "yes" : "-",
                  FormatNumber(d.allocation, 0),
                  FormatNumber(d.predicted_utility, 2),
                  FormatNumber(d.future_speed, 0)});
      }
    }
    std::cout << (csv ? t.ToCsv() : t.ToText());

    Table outcomes({"job", "completion [s]", "goal [s]", "RP at completion"});
    for (const JobOutcomeRecord& r : result.outcomes) {
      outcomes.AddRow({"J" + std::to_string(r.id),
                       FormatNumber(r.completion_time, 2),
                       FormatNumber(r.completion_goal, 0),
                       FormatNumber(r.achieved_utility, 3)});
    }
    std::cout << "Completions:\n" << outcomes.ToText() << '\n';
  }
  std::cout << "Paper reference points: S1 cycle 2 keeps J2 queued with both "
               "jobs at RP ~0.7;\nS2 cycle 2 runs J1 and J2 at 500 MHz each "
               "at RP ~0.65 (Figure 1).\n";
  return 0;
}
