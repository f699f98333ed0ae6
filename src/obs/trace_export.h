// Versioned exporters for CycleTrace runs: JSON-lines and CSV.
//
// Every key, its order, JSON type, version gate and optional group are
// defined once, in the field lists of obs/trace_schema.h. The writers below
// and the reader (src/replay/trace_reader.h) walk those lists.
//
// Schema v2 (kTraceSchemaVersion):
//   - JSONL: line 1 is a header record
//       {"record":"header","schema_version":2,"run_id":...,"experiment":...,
//        "seed":...,"control_cycle":...,"build_type":...,"git_sha":...,
//        "num_cycles":...}
//     followed by one {"record":"cycle","run_id":...,...} object per control
//     cycle with a fixed key order. NaN (e.g.
//     avg_job_rp with no jobs) is emitted as JSON null. Cycles recorded
//     under full tracing additionally carry "input" (the complete optimizer
//     input: nodes, jobs, tx apps, solver options, constraints) and
//     "decision" (the committed placement + allocations) objects — the
//     payload the replay harness (src/replay) re-runs the solver on.
//   - CSV: line 1 is a '#'-prefixed header carrying the same context,
//     line 2 the column names, then one row per cycle. The columns are the
//     cycle record's always-written fields; vector-valued fields (rp_before,
//     rp_after, tx_*) are ';'-joined within their cell and NaN is spelled
//     "nan". CSV never carries the optional groups, so no input/decision —
//     replay requires the JSONL form.
//
// v1 differs only in lacking run_id and input/decision; the reader accepts
// both through the same field lists.
//
// Doubles are serialized with std::to_chars shortest round-trip formatting,
// so re-parsing an export reproduces the recorded values bit-for-bit and
// golden files are stable across hosts. Any field addition, removal or
// reorder MUST bump kTraceSchemaVersion; the golden-file tests and the wire
// fingerprint test exist to make an unversioned change fail loudly. CI
// checks emitted JSONL against this schema with `replay_apc --validate`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/cycle_trace.h"
#include "obs/metrics.h"

namespace mwp::obs {

inline constexpr int kTraceSchemaVersion = 2;

/// Run-level provenance written into every export's header. Fill
/// `experiment`, `seed` and `control_cycle` per run; MakeTraceContext stamps
/// the build fields from BuildInfo.
struct TraceContext {
  std::string experiment;      ///< e.g. "experiment1"
  std::uint64_t seed = 0;      ///< RNG seed of the run
  Seconds control_cycle = 0.0; ///< controller period
  std::string build_type;      ///< BuildInfo::BuildType() of the producer
  std::string git_sha;         ///< BuildInfo::GitSha() of the producer
  /// Header-level run identifier. Single-run exports stamp it here; sweep
  /// exports leave it "" and rely on the per-cycle run_id instead.
  std::string run_id;
  /// Optional workload-generator calibration parameters, emitted as a
  /// `"scenario":{name:value,...}` header object in the given order. Empty
  /// (the default) omits the key entirely, keeping pre-scenario exports
  /// byte-identical — adding this did not bump the schema version for that
  /// reason. Stamped by scenario runs (src/workload) so a trace carries the
  /// parameters that generated its workload.
  std::vector<std::pair<std::string, double>> scenario;
};

/// TraceContext with build_type / git_sha filled from BuildInfo.
TraceContext MakeTraceContext(std::string experiment, std::uint64_t seed,
                              Seconds control_cycle,
                              std::string run_id = "");

void WriteTraceJsonl(std::ostream& os, const TraceContext& context,
                     std::span<const CycleTrace> traces);
void WriteTraceCsv(std::ostream& os, const TraceContext& context,
                   std::span<const CycleTrace> traces);

/// Writes to `path`, choosing CSV when the path ends in ".csv" and JSONL
/// otherwise. Returns false (after logging) when the file cannot be written.
bool ExportTrace(const std::string& path, const TraceContext& context,
                 std::span<const CycleTrace> traces);

/// Appends one JSONL record per instrument ({"record":"counter"|"gauge"|
/// "histogram",...}) — the registry's companion to the cycle records.
void WriteMetricsJsonl(std::ostream& os, const MetricsSnapshot& snapshot);

/// Shortest round-trip decimal form of `value` ("nan"/"inf"/"-inf" for
/// non-finite values) — the exporters' number format, exposed for tests.
std::string FormatDouble(double value);
/// FormatDouble(value) appended to `out`.
void AppendDouble(std::string& out, double value);

}  // namespace mwp::obs
