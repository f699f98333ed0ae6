// Reader for CycleTrace JSONL exports (trace schema v1 and v2).
//
// The exporter (obs/trace_export.h) serializes doubles with std::to_chars
// shortest round-trip formatting; this reader parses numbers back with
// std::from_chars, so a parsed trace holds the recorded values bit-for-bit
// and serialize→parse→serialize is byte-stable (property-tested). A small
// dependency-free recursive-descent parser reads each line's JSON; the
// mapping onto the structs walks the same field lists the exporter writes
// from (obs/trace_schema.h), one definition of the schema for both sides.
//
// The reader is strict: it accepts exactly what the exporter can emit. Each
// object must carry exactly the keys the exporter would write for the
// values read from it — no unknown, repeated or missing key, optional groups
// whole or absent — and each value must have its field's JSON type.
// Integers are parsed straight into their member's type, so a fraction, an
// exponent or an out-of-range value is an error, not a cast.
//
// Malformed input is reported as a "line N:" error naming the key, never a
// crash: the replay CLI must diagnose truncated or hand-edited traces
// gracefully (the reader's mutation fuzz test holds it to that).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp::replay {

/// A parsed trace file: the header's provenance plus every cycle record, in
/// file order. v1 files parse with empty run_ids and no input/decision.
struct ParsedTrace {
  int schema_version = 0;
  obs::TraceContext context;
  std::vector<obs::CycleTrace> cycles;
};

/// Parses a JSONL export. Returns std::nullopt and sets *error (if non-null)
/// on malformed input — bad JSON, wrong record shape, unsupported schema
/// version, or a header/cycle-count mismatch.
std::optional<ParsedTrace> ParseTraceJsonl(std::string_view text,
                                           std::string* error);

/// Reads and parses `path`. Errors include I/O failures.
std::optional<ParsedTrace> ParseTraceFile(const std::string& path,
                                          std::string* error);

/// Cross-record rules a single record's field list cannot state. Returns
/// false and sets *error (if non-null) to a "line N:" diagnostic when:
///   - within a run segment the cycle number does not advance by 1 (a new
///     segment starts at cycle 0), or run_id changes away from cycle 0;
///   - rp_after does not hold num_jobs + tx_utilities entries;
///   - a sharded cycle's cell_solver_seconds does not hold num_cells;
///   - a recorded input's jobs do not match num_jobs, its tx apps do not
///     match tx_utilities, or its credits do not hold one entry per job and
///     tx app;
///   - the trace has fewer than `min_cycles` cycles.
bool ValidateTrace(const ParsedTrace& trace, int min_cycles,
                   std::string* error);

}  // namespace mwp::replay
