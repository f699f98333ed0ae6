#include "obs/trace_export.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "obs/build_info.h"
#include "obs/trace_schema.h"

namespace mwp::obs {
namespace {

/// JSON has no NaN/Infinity literals; non-finite doubles become null.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return FormatDouble(value);
}

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

std::string JsonString(const std::string& s) {
  std::string out;
  AppendJsonString(out, s);
  return out;
}

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(static_cast<double>(values[i]));
  }
  out += ']';
  return out;
}

/// Shortest round-trip digits of an integer or a double.
template <typename T>
void AppendChars(std::string& out, T value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  MWP_CHECK(ec == std::errc());
  out.append(buf, ptr);
}

using schema::kIsOptional;
using schema::kIsTag;
using schema::Scenario;

template <typename T>
void AppendJson(std::string& out, const T& value);

/// `"key":` with the separating comma after the object's first member.
void AppendKey(std::string& out, bool& first, std::string_view key) {
  if (!first) out += ',';
  first = false;
  AppendJsonString(out, key);
  out += ':';
}

/// An object (or positional array) holding the fields the writer emits for
/// `record`, in wire order.
template <schema::WireRecord R>
void AppendRecord(std::string& out, const R& record) {
  bool first = true;
  if constexpr (schema::kTupleEncoded<R>) {
    out += '[';
    schema::ForEachField<R>([&](const auto& field) {
      if (!first) out += ',';
      first = false;
      AppendJson(out, field.Get(record));
    });
    out += ']';
  } else {
    out += '{';
    schema::ForEachField<R>([&](const auto& field) {
      if constexpr (kIsTag<decltype(field)>) {
        AppendKey(out, first, field.key);
        AppendJsonString(out, field.value);
      } else if (field.Written(record)) {
        AppendKey(out, first, field.key);
        AppendJson(out, field.Get(record));
      }
    });
    out += '}';
  }
}

template <typename T>
void AppendJson(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    AppendChars(out, value);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (std::isfinite(value)) {
      AppendChars(out, value);
    } else {
      out += "null";
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    AppendJsonString(out, value);
  } else if constexpr (schema::WireRecord<T>) {
    AppendRecord(out, value);
  } else if constexpr (kIsOptional<T>) {
    // Only written with its group, whose condition is has_value() of the
    // group's first member; the other members must agree.
    MWP_CHECK(value.has_value());
    AppendJson(out, *value);
  } else if constexpr (std::is_same_v<T, Scenario>) {
    bool first = true;
    out += '{';
    for (const auto& [name, number] : value) {
      AppendKey(out, first, name);
      AppendJson(out, number);
    }
    out += '}';
  } else {
    out += '[';
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ',';
      AppendJson(out, value[i]);
    }
    out += ']';
  }
}

template <typename T>
concept CsvValue = std::is_arithmetic_v<T> || std::is_same_v<T, std::string> ||
                   std::is_same_v<T, std::vector<double>>;

/// CSV cell: bools as 1/0, doubles as FormatDouble ("nan"), strings raw,
/// number arrays ';'-joined.
template <CsvValue T>
void AppendCsv(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out += value ? '1' : '0';
  } else if constexpr (std::is_integral_v<T>) {
    AppendChars(out, value);
  } else if constexpr (std::is_floating_point_v<T>) {
    out += FormatDouble(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += value;
  } else {
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ';';
      AppendCsv(out, value[i]);
    }
  }
}

/// Calls `fn(field)` for each field of R that the CSV form carries.
template <schema::WireRecord R, typename Fn>
void ForEachCsvField(Fn&& fn) {
  schema::ForEachField<R>([&](const auto& field) {
    if constexpr (!kIsTag<decltype(field)>) {
      using Member = typename std::remove_cvref_t<decltype(field)>::Member;
      if constexpr (CsvValue<Member>) {
        if (field.in_csv) fn(field);
      }
    }
  });
}

/// Every field the CSV form should carry has a CSV cell encoding.
template <schema::WireRecord R>
consteval bool CsvCoversAlwaysWrittenFields() {
  bool covered = true;
  schema::ForEachField<R>([&](const auto& field) {
    if constexpr (!kIsTag<decltype(field)>) {
      using Member = typename std::remove_cvref_t<decltype(field)>::Member;
      if (field.in_csv && !CsvValue<Member>) covered = false;
    }
  });
  return covered;
}
static_assert(CsvCoversAlwaysWrittenFields<schema::TraceHeader>());
static_assert(CsvCoversAlwaysWrittenFields<CycleTrace>());

}  // namespace

std::string FormatDouble(double value) {
  std::string out;
  AppendDouble(out, value);
  return out;
}

void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "nan";
  } else if (std::isinf(value)) {
    out += value > 0 ? "inf" : "-inf";
  } else {
    AppendChars(out, value);
  }
}

TraceContext MakeTraceContext(std::string experiment, std::uint64_t seed,
                              Seconds control_cycle, std::string run_id) {
  TraceContext context;
  context.experiment = std::move(experiment);
  context.seed = seed;
  context.control_cycle = control_cycle;
  context.build_type = BuildInfo::BuildType();
  context.git_sha = BuildInfo::GitSha();
  context.run_id = std::move(run_id);
  return context;
}

void WriteTraceJsonl(std::ostream& os, const TraceContext& context,
                     std::span<const CycleTrace> traces) {
  const schema::TraceHeader header{kTraceSchemaVersion, context,
                                   traces.size()};
  std::string line;
  AppendRecord(line, header);
  line += '\n';
  os << line;
  for (const CycleTrace& t : traces) {
    line.clear();
    AppendRecord(line, t);
    line += '\n';
    os << line;
  }
}

void WriteTraceCsv(std::ostream& os, const TraceContext& context,
                   std::span<const CycleTrace> traces) {
  const schema::TraceHeader header{kTraceSchemaVersion, context,
                                   traces.size()};
  std::string line(schema::kCsvMagic);
  ForEachCsvField<schema::TraceHeader>([&](const auto& field) {
    line += ' ';
    line += field.key;
    line += '=';
    AppendCsv(line, field.Get(header));
  });
  line += '\n';
  bool first = true;
  ForEachCsvField<CycleTrace>([&](const auto& field) {
    if (!first) line += ',';
    first = false;
    line += field.key;
  });
  line += '\n';
  os << line;
  for (const CycleTrace& t : traces) {
    line.clear();
    first = true;
    ForEachCsvField<CycleTrace>([&](const auto& field) {
      if (!first) line += ',';
      first = false;
      AppendCsv(line, field.Get(t));
    });
    line += '\n';
    os << line;
  }
}

bool ExportTrace(const std::string& path, const TraceContext& context,
                 std::span<const CycleTrace> traces) {
  std::ofstream out(path);
  if (!out) {
    MWP_LOG_ERROR << "cannot open trace output file '" << path << "'";
    return false;
  }
  const bool csv = path.size() >= 4 && path.substr(path.size() - 4) == ".csv";
  if (csv) {
    WriteTraceCsv(out, context, traces);
  } else {
    WriteTraceJsonl(out, context, traces);
  }
  out.flush();
  if (!out) {
    MWP_LOG_ERROR << "error while writing trace output file '" << path << "'";
    return false;
  }
  return true;
}

void WriteMetricsJsonl(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) {
    os << "{\"record\":\"counter\",\"name\":" << JsonString(c.name)
       << ",\"value\":" << c.value << "}\n";
  }
  for (const auto& g : snapshot.gauges) {
    os << "{\"record\":\"gauge\",\"name\":" << JsonString(g.name)
       << ",\"value\":" << JsonNumber(g.value) << "}\n";
  }
  for (const auto& h : snapshot.histograms) {
    os << "{\"record\":\"histogram\",\"name\":" << JsonString(h.name)
       << ",\"count\":" << h.count << ",\"sum\":" << JsonNumber(h.sum)
       << ",\"p50\":" << JsonNumber(HistogramQuantile(h, 0.50))
       << ",\"p95\":" << JsonNumber(HistogramQuantile(h, 0.95))
       << ",\"p99\":" << JsonNumber(HistogramQuantile(h, 0.99))
       << ",\"bounds\":" << JsonArray(h.bounds)
       << ",\"buckets\":" << JsonArray(h.buckets) << "}\n";
  }
}

}  // namespace mwp::obs
