// Seeded corpus of exportable CycleTrace runs that together exercise the
// whole trace wire format. Shared by the wire fingerprint test (which pins
// the exported bytes across commits) and the reader's mutation fuzz test
// (which mutates one-cycle slices of it).
#pragma once

#include <vector>

#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp::obs {

/// One exportable run: the header context plus its cycles.
struct WireTrace {
  TraceContext context;
  std::vector<CycleTrace> cycles;
};

/// `count` traces drawn from a fixed seed. Together they carry every
/// optional group both present and absent (header scenario, sharded and
/// objective solver options, credits, sharded cycle stats, trigger), cycles
/// with and without input/decision, NaN, ±inf and -0 doubles, extreme
/// integers, and empty or escaped strings ('"', '\\', newline, tab). The
/// same count always yields the same traces.
std::vector<WireTrace> WireCorpus(int count = 200);

}  // namespace mwp::obs
