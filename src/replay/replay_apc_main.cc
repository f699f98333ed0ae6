// replay_apc: re-run recorded APC control cycles and diff the decisions.
//
// Usage:
//   replay_apc --trace TRACE.jsonl [--diff] [--tolerance 1e-9]
//              [--threads N] [--report FILE] [--verbose] [--quiet]
//              [--override-tie-tolerance EPS] [--override-sweeps N]
//              [--override-cell-size N]
//   replay_apc --trace TRACE.jsonl --validate [--min-cycles N]
//
// Reads a CycleTrace JSONL export (schema v2 recorded with --trace-full),
// reconstructs every cycle's optimizer input, re-runs the placement solver
// and compares the replayed decisions against the recorded ones. With
// --diff (the default behaviour; the flag exists for symmetry with the
// issue's CLI contract), the per-cycle diff report is printed and the exit
// status reflects the comparison:
//
//   0  every replayed cycle agrees (no placement diff, drift <= tolerance)
//   1  regression: placement delta, RP/allocation drift above tolerance,
//      a malformed trace, or a trace with no replayable cycles
//   2  usage error: an unknown flag, a malformed or out-of-range value
//      (CommandLine and RunMain, as in every bench and example binary)
//
// --report writes the same diff report to a file (for CI artifacts).
//
// --validate checks the trace without replaying it: the strict parse (every
// record carries exactly the keys the exporter writes, with their JSON
// types) plus ValidateTrace's cross-record rules, and at least N cycles
// (--min-cycles, default 1). It prints one OK or INVALID line and exits 0
// or 1. It accepts traces recorded without --trace-full.
//
// The --override-* flags re-run the recorded cycles under a different solver
// configuration (tie tolerance, sweep budget, sharding cell size) for
// offline tuning on production traces. Overridden replays are what-if
// experiments: divergence from the recorded decisions is reported per cycle
// but never fails the exit status.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "replay/replay.h"
#include "replay/trace_reader.h"

namespace {

constexpr const char* kUsage =
    " --trace TRACE.jsonl [--diff] [--tolerance EPS] [--threads N]"
    " [--report FILE] [--verbose] [--quiet] [--override-tie-tolerance EPS]"
    " [--override-sweeps N] [--override-cell-size N]\n"
    "       replay_apc --trace TRACE.jsonl --validate [--min-cycles N]\n";

/// Strict parse plus ValidateTrace, without replaying.
int Validate(const std::string& path, int min_cycles) {
  std::string error;
  const auto trace = mwp::replay::ParseTraceFile(path, &error);
  if (!trace.has_value() ||
      !mwp::replay::ValidateTrace(*trace, min_cycles, &error)) {
    std::cerr << path << ": INVALID: " << error << "\n";
    return 1;
  }
  std::cout << path << ": OK (" << trace->cycles.size()
            << " cycle records, schema v" << trace->schema_version << ")\n";
  return 0;
}

int Run(const mwp::CommandLine& cli) {
  const std::vector<std::string>& positional = cli.positional();
  if (cli.GetBool("help", false) ||
      std::find(positional.begin(), positional.end(), "-h") !=
          positional.end()) {
    std::cout << "usage: replay_apc" << kUsage;
    return 0;
  }
  const std::string trace_path = cli.GetString("trace", "");
  const std::string report_path = cli.GetString("report", "");
  mwp::replay::ReplayOptions options;
  options.rp_tolerance = cli.GetDouble("tolerance", options.rp_tolerance);
  options.search_threads =
      static_cast<int>(cli.GetInt("threads", options.search_threads));
  if (cli.Has("override-tie-tolerance")) {
    options.override_tie_tolerance =
        cli.GetDouble("override-tie-tolerance", 0.0);
  }
  if (cli.Has("override-sweeps")) {
    options.override_sweeps =
        static_cast<int>(cli.GetInt("override-sweeps", 0));
  }
  if (cli.Has("override-cell-size")) {
    options.override_cell_size =
        static_cast<int>(cli.GetInt("override-cell-size", 0));
  }
  std::optional<int> min_cycles;
  if (cli.Has("min-cycles")) {
    min_cycles = static_cast<int>(cli.GetInt("min-cycles", 1));
  }
  const bool validate = cli.GetBool("validate", false);
  // Diffing is the default mode; --diff is accepted for clarity.
  cli.GetBool("diff", false);
  const bool verbose = cli.GetBool("verbose", false);
  const bool quiet = cli.GetBool("quiet", false);
  cli.RejectUnknownFlags();
  if (!positional.empty()) {
    throw std::invalid_argument("unexpected argument '" + positional.front() +
                                "'");
  }
  if (trace_path.empty()) throw std::invalid_argument("--trace is required");
  if (min_cycles.has_value() && !validate) {
    throw std::invalid_argument("--min-cycles applies only with --validate");
  }
  // Values the solver would refuse for every cycle, blaming the trace.
  MWP_CHECK(options.search_threads >= 0);
  MWP_CHECK(options.override_tie_tolerance.value_or(0.0) >= 0.0);
  MWP_CHECK(options.override_sweeps.value_or(1) >= 1);
  MWP_CHECK(options.override_cell_size.value_or(0) >= 0);
  MWP_CHECK(min_cycles.value_or(0) >= 0);
  if (validate) return Validate(trace_path, min_cycles.value_or(1));

  std::string error;
  const auto trace = mwp::replay::ParseTraceFile(trace_path, &error);
  if (!trace.has_value()) {
    std::cerr << trace_path << ": " << error << "\n";
    return 1;
  }

  const mwp::replay::ReplayReport report =
      mwp::replay::ReplayTrace(*trace, options);

  std::ostringstream out;
  mwp::replay::WriteReport(out, report, options, verbose);
  if (!quiet) std::cout << out.str();
  if (!report_path.empty()) {
    std::ofstream file(report_path);
    if (!file) {
      std::cerr << "cannot open report file '" << report_path << "'\n";
      return 1;
    }
    file << out.str();
  }

  if (report.replayed_cycles == 0) {
    std::cerr << trace_path
              << ": no replayable cycles (record with --trace-full)\n";
    return 1;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Run); }
