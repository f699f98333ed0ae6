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
//   2  usage error
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
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "replay/replay.h"
#include "replay/trace_reader.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --trace TRACE.jsonl [--diff] [--tolerance EPS]"
               " [--threads N] [--report FILE] [--verbose] [--quiet]"
               " [--override-tie-tolerance EPS] [--override-sweeps N]"
               " [--override-cell-size N]\n"
            << "       " << argv0
            << " --trace TRACE.jsonl --validate [--min-cycles N]\n";
  return 2;
}

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

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string report_path;
  mwp::replay::ReplayOptions options;
  bool verbose = false;
  bool quiet = false;
  bool validate = false;
  std::optional<int> min_cycles;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return Usage(argv[0]);
      trace_path = v;
    } else if (arg == "--report") {
      const char* v = next("--report");
      if (v == nullptr) return Usage(argv[0]);
      report_path = v;
    } else if (arg == "--tolerance") {
      const char* v = next("--tolerance");
      if (v == nullptr) return Usage(argv[0]);
      options.rp_tolerance = std::strtod(v, nullptr);
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return Usage(argv[0]);
      options.search_threads = std::atoi(v);
    } else if (arg == "--override-tie-tolerance") {
      const char* v = next("--override-tie-tolerance");
      if (v == nullptr) return Usage(argv[0]);
      options.override_tie_tolerance = std::strtod(v, nullptr);
    } else if (arg == "--override-sweeps") {
      const char* v = next("--override-sweeps");
      if (v == nullptr) return Usage(argv[0]);
      options.override_sweeps = std::atoi(v);
    } else if (arg == "--override-cell-size") {
      const char* v = next("--override-cell-size");
      if (v == nullptr) return Usage(argv[0]);
      options.override_cell_size = std::atoi(v);
    } else if (arg == "--min-cycles") {
      const char* v = next("--min-cycles");
      if (v == nullptr) return Usage(argv[0]);
      min_cycles = std::atoi(v);
      if (*min_cycles < 0) {
        std::cerr << "--min-cycles must not be negative\n";
        return Usage(argv[0]);
      }
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--diff") {
      // Diffing is the default mode; accepted for CLI-contract clarity.
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }
  if (trace_path.empty()) {
    std::cerr << "--trace is required\n";
    return Usage(argv[0]);
  }
  if (min_cycles.has_value() && !validate) {
    std::cerr << "--min-cycles applies only with --validate\n";
    return Usage(argv[0]);
  }
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
