// The tree's one host-clock read.
//
// Decisions run on simulated time only: bit-exact replay re-executes a
// recorded cycle and must reach the same placement on any host. A few
// observability figures are host wall time by intent — the solver's
// runtime (CycleStats::solver_seconds), the per-cell solve times and the
// service's event-to-decision latency. They are measured here and nowhere
// else, never feed a decision, and are masked in every determinism oracle.
// The determinism auditor (tools/analysis/determinism_audit.py, AUD-D3)
// flags any other clock read.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/units.h"

namespace mwp::obs {

/// Host monotonic time in nanoseconds since an unspecified epoch.
inline std::uint64_t MonotonicNs() {
  // audit: wall-clock-ok(observability only; never feeds a decision)
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

/// Host wall time elapsed since construction.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(MonotonicNs()) {}

  Seconds Elapsed() const {
    return std::chrono::duration<Seconds>(
               std::chrono::nanoseconds(MonotonicNs() - start_ns_))
        .count();
  }

 private:
  std::uint64_t start_ns_;
};

}  // namespace mwp::obs
