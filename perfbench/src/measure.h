// Outside-in timing for the benchmark drivers.
//
// Every call the drivers make into a layer of the library goes through
// Tracer::Time, which reads the steady clock around the call and returns the
// elapsed seconds. In a traced run the tracer also keeps a span per call —
// name, start, end, parent and the id of the cycle or event it belongs to —
// in memory, to be written out when the run ends. A span's self time is its
// duration minus the durations of its direct children; children never
// outlive their parent because spans nest with the calls that open them.
//
// The benchmark's own work inside a timed section (correctness checks, the
// traced run's probe calls, per-arrival bookkeeping) is wrapped in
// Tracer::Exclude, which times it on both clocks so the run's wall and CPU
// seconds can be reported without it.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CPU seconds consumed by this process so far (all threads).
double ProcessCpuSeconds();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span
  std::uint64_t group = 0;   ///< cycle or event the span belongs to
  const char* name = "";
  std::int64_t start_ns = 0;  ///< relative to the tracer's origin
  std::int64_t end_ns = 0;
};

/// Per-name aggregate of recorded spans.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool record_spans);

  bool recording() const { return record_; }

  /// Id shared by the spans of one cycle or event.
  std::uint64_t NewGroup() { return ++last_group_; }

  /// Runs `fn` and returns its wall seconds; records a span when recording.
  template <class Fn>
  double Time(const char* name, std::uint64_t group, Fn&& fn) {
    const std::size_t slot = Open(name, group);
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    Close(slot, start, end);
    return std::chrono::duration<double>(end - start).count();
  }

  /// Runs the benchmark's own work `fn` inside a timed section and adds its
  /// wall and CPU seconds to excluded_wall_s()/excluded_cpu_s(). Recorded
  /// as a span too, so a parent's self time does not absorb it.
  template <class Fn>
  void Exclude(const char* name, std::uint64_t group, Fn&& fn) {
    const double cpu0 = ProcessCpuSeconds();
    excluded_wall_s_ += Time(name, group, fn);
    excluded_cpu_s_ += ProcessCpuSeconds() - cpu0;
  }

  double excluded_wall_s() const { return excluded_wall_s_; }
  double excluded_cpu_s() const { return excluded_cpu_s_; }

  std::size_t span_count() const { return spans_.size(); }
  /// Count, total and self seconds per span name.
  std::map<std::string, SpanTotals> Totals() const;
  /// One JSON object per span for the first `count` spans, in opening order.
  void WriteJsonl(std::ostream& os, std::size_t count) const;

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::size_t Open(const char* name, std::uint64_t group);
  void Close(std::size_t slot, Clock::time_point start, Clock::time_point end);

  bool record_;
  Clock::time_point origin_;
  std::uint64_t last_group_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_, innermost last
  double excluded_wall_s_ = 0.0;
  double excluded_cpu_s_ = 0.0;
};

/// Host conditions around one run: what else competed for the machine.
struct HostContext {
  int nproc = 0;
  double loadavg_1m = 0.0;
  std::string build_type;
};

/// Steal seconds accumulated by all CPUs since boot (/proc/stat); 0 where
/// the file is unavailable.
double HostStealSeconds();

/// nproc, 1-minute load average and build type, read now.
HostContext ReadHostContext();

}  // namespace perfbench
