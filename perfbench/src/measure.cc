#include "measure.h"

#include <time.h>
#include <unistd.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer::Tracer(bool record_spans)
    : record_(record_spans), origin_(Clock::now()) {}

std::size_t Tracer::Open(const char* name, std::uint64_t group) {
  if (!record_) return kNoSlot;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.group = group;
  span.name = name;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Close(std::size_t slot, Clock::time_point start,
                   Clock::time_point end) {
  if (slot == kNoSlot) return;
  Span& span = spans_[slot];
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans_) {
    SpanTotals& t = totals[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[s.id]) * 1e-9;
  }
  return totals;
}

void Tracer::WriteJsonl(std::ostream& os, std::size_t count) const {
  for (std::size_t i = 0; i < count && i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << "}\n";
  }
}

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  std::istringstream fields(line);
  std::string cpu;
  fields >> cpu;
  // user nice system idle iowait irq softirq steal
  unsigned long long value = 0;
  unsigned long long steal = 0;
  for (int i = 0; i < 8 && (fields >> value); ++i) steal = value;
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(steal) / static_cast<double>(ticks)
                   : 0.0;
}

HostContext ReadHostContext() {
  HostContext host;
  host.nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream in("/proc/loadavg");
  in >> host.loadavg_1m;
#ifdef PERFBENCH_BUILD_TYPE
  host.build_type = PERFBENCH_BUILD_TYPE;
#endif
#ifndef NDEBUG
  host.build_type += "+asserts";
#endif
  return host;
}

}  // namespace perfbench
