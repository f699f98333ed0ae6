#include "replay/trace_reader.h"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "obs/trace_schema.h"

namespace mwp::replay {
namespace {

/// One parsed JSON value. Number tokens are kept raw and converted lazily
/// with std::from_chars, so the exporter's shortest round-trip decimals map
/// back to the exact recorded doubles.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  std::string number;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;
};

/// Recursive-descent parser over the exporter's JSON subset.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue& out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after value");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxDepth = 32;

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.string_value);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = true;
        return ConsumeLiteral("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = false;
        return ConsumeLiteral("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return false;
      out.array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        default:
          return Fail("unsupported string escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("invalid value");
    out.number.assign(text_.substr(start, pos_ - start));
    double probe = 0.0;
    const char* begin = out.number.data();
    const char* end = begin + out.number.size();
    const auto [ptr, ec] = std::from_chars(begin, end, probe);
    if (ec != std::errc() || ptr != end) return Fail("malformed number");
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using obs::schema::kIsOptional;
using obs::schema::kIsTag;
using obs::schema::Scenario;

/// First error of the JSON -> struct mapping, and the schema version whose
/// keys are read.
struct Reader {
  int version = obs::kTraceSchemaVersion;
  std::string error;

  bool Fail(std::string message) {
    if (error.empty()) error = std::move(message);
    return false;
  }
  bool Fail(std::string_view key, std::string_view problem) {
    return Fail("key '" + std::string(key) + "' " + std::string(problem));
  }
};

/// Parses the whole token as a T: no fraction, exponent or out-of-range
/// value, and no sign for an unsigned T.
template <typename T>
bool ParseInteger(const std::string& token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Member lookup that expects the keys in wire order: one comparison per
/// key on an object the writer produced, a scan otherwise.
class Members {
 public:
  explicit Members(const JsonValue& object) : members_(object.members) {}

  const JsonValue* Find(std::string_view key) {
    if (next_ < members_.size() && members_[next_].first == key) {
      return &members_[next_++].second;
    }
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i].first == key) {
        next_ = i + 1;
        return &members_[i].second;
      }
    }
    return nullptr;
  }

 private:
  const std::vector<std::pair<std::string, JsonValue>>& members_;
  std::size_t next_ = 0;
};

template <obs::schema::WireRecord R>
bool ReadRecord(Reader& rd, const JsonValue& value, R& record,
                std::string_view key);

/// Reads `value` into `out`, whose C++ type decides the JSON type expected
/// (see trace_schema.h). `key` names the field in errors; it is empty for a
/// whole line's record.
template <typename T>
bool ReadJson(Reader& rd, const JsonValue& value, T& out,
              std::string_view key) {
  using Kind = JsonValue::Kind;
  if constexpr (std::is_same_v<T, bool>) {
    if (value.kind != Kind::kBool) return rd.Fail(key, "is not a boolean");
    out = value.bool_value;
    return true;
  } else if constexpr (std::is_integral_v<T>) {
    if (value.kind != Kind::kNumber || !ParseInteger(value.number, out)) {
      return rd.Fail(key, "is not an integer in range");
    }
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    if (value.kind == Kind::kNull) {
      out = kNaN;
      return true;
    }
    if (value.kind != Kind::kNumber) {
      return rd.Fail(key, "is not a number or null");
    }
    // The parser has already checked that the whole token is a double.
    std::from_chars(value.number.data(),
                    value.number.data() + value.number.size(), out);
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (value.kind != Kind::kString) return rd.Fail(key, "is not a string");
    out = value.string_value;
    return true;
  } else if constexpr (obs::schema::WireRecord<T>) {
    return ReadRecord(rd, value, out, key);
  } else if constexpr (kIsOptional<T>) {
    return ReadJson(rd, value, out.emplace(), key);
  } else if constexpr (std::is_same_v<T, Scenario>) {
    if (value.kind != Kind::kObject) return rd.Fail(key, "is not an object");
    out.resize(value.members.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].first = value.members[i].first;
      if (!ReadJson(rd, value.members[i].second, out[i].second, key)) {
        return false;
      }
    }
    return true;
  } else {
    if (value.kind != Kind::kArray) return rd.Fail(key, "is not an array");
    out.resize(value.array.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!ReadJson(rd, value.array[i], out[i], key)) return false;
    }
    return true;
  }
}

/// Names the first member of `object` that R's field list did not consume:
/// a key the list lacks at this schema version, or a repeated key.
template <obs::schema::WireRecord R>
bool FailOnUnreadMember(Reader& rd, const JsonValue& object) {
  const auto& members = object.members;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string& name = members[i].first;
    bool known = false;
    obs::schema::ForEachField<R>([&](const auto& field) {
      if constexpr (kIsTag<decltype(field)>) {
        known = known || field.key == name;
      } else {
        known = known || (field.key == name && field.since <= rd.version);
      }
    });
    if (!known) {
      return rd.Fail(name, "is not in schema v" + std::to_string(rd.version));
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (members[j].first == name) return rd.Fail(name, "is repeated");
    }
  }
  return rd.Fail("object has members no field reads");
}

/// Reads one record through its field list. An object must carry exactly
/// the keys the writer would emit for the values read from it.
template <obs::schema::WireRecord R>
bool ReadRecord(Reader& rd, const JsonValue& value, R& record,
                std::string_view key) {
  using Kind = JsonValue::Kind;
  if constexpr (obs::schema::kTupleEncoded<R>) {
    constexpr std::size_t kArity =
        std::tuple_size_v<decltype(obs::schema::Schema<R>::kFields)>;
    if (value.kind != Kind::kArray || value.array.size() != kArity) {
      return rd.Fail(key, "holds an element that is not an array of " +
                              std::to_string(kArity) + " integers");
    }
    std::size_t i = 0;
    bool ok = true;
    obs::schema::ForEachField<R>([&](const auto& field) {
      ok = ok && ReadJson(rd, value.array[i++], field.Get(record), key);
    });
    return ok;
  } else {
    if (value.kind != Kind::kObject) {
      return key.empty() ? rd.Fail("a record must be a JSON object")
                         : rd.Fail(key, "is not an object");
    }
    // Read every key present at this schema version; absent keys keep the
    // struct's defaults.
    static_assert(
        std::tuple_size_v<decltype(obs::schema::Schema<R>::kFields)> <= 64);
    Members members(value);
    std::uint64_t present = 0;
    std::size_t consumed = 0;
    std::size_t index = 0;
    bool ok = true;
    obs::schema::ForEachField<R>([&](const auto& field) {
      const std::uint64_t bit = std::uint64_t{1} << index++;
      if (!ok) return;
      if constexpr (kIsTag<decltype(field)>) {
        const JsonValue* tag = members.Find(field.key);
        if (tag == nullptr || tag->kind != Kind::kString ||
            tag->string_value != field.value) {
          ok = rd.Fail("expected a " + std::string(field.value) + " record");
          return;
        }
        ++consumed;
      } else {
        if (field.since > rd.version) return;
        const JsonValue* member = members.Find(field.key);
        if (member == nullptr) return;
        ++consumed;
        present |= bit;
        ok = ReadJson(rd, *member, field.Get(record), field.key);
      }
    });
    if (!ok) return false;
    if (consumed != value.members.size()) {
      return FailOnUnreadMember<R>(rd, value);
    }
    // A key is present exactly when the writer emits it: required keys and
    // whole optional groups whose condition holds.
    index = 0;
    obs::schema::ForEachField<R>([&](const auto& field) {
      const bool is_present = (present >> index++) & 1U;
      if constexpr (!kIsTag<decltype(field)>) {
        if (!ok || field.since > rd.version) return;
        if (is_present != field.Written(record)) {
          ok = rd.Fail(field.key, is_present
                                      ? "is present but its group is off"
                                      : "is missing");
        }
      }
    });
    return ok;
  }
}

/// The header's schema version, read ahead of its other keys because it
/// gates them. Absent or malformed, it is the current version and the
/// header's own walk reports the problem.
int PeekSchemaVersion(const JsonValue& header) {
  if (header.kind == JsonValue::Kind::kObject) {
    for (const auto& [key, value] : header.members) {
      int version = 0;
      if (key == obs::schema::kSchemaVersion.key &&
          value.kind == JsonValue::Kind::kNumber &&
          ParseInteger(value.number, version)) {
        return version;
      }
    }
  }
  return obs::kTraceSchemaVersion;
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string LineError(std::size_t line, const std::string& message) {
  return "line " + std::to_string(line) + ": " + message;
}

template <auto... Path>
std::string KeyName() {
  return std::string(obs::schema::KeyOf<Path...>());
}

}  // namespace

std::optional<ParsedTrace> ParseTraceJsonl(std::string_view text,
                                           std::string* error) {
  const auto fail = [error](std::size_t line, const std::string& message) {
    SetError(error, LineError(line, message));
    return std::nullopt;
  };
  ParsedTrace trace;
  Reader rd;
  std::uint64_t declared = 0;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) return fail(line_no, "empty line");

    JsonValue value;
    Parser parser(line);
    if (!parser.Parse(value)) return fail(line_no, parser.error());
    if (line_no == 1) {
      rd.version = PeekSchemaVersion(value);
      if (rd.version < 1 || rd.version > obs::kTraceSchemaVersion) {
        return fail(1, "unsupported " +
                           std::string(obs::schema::kSchemaVersion.key) +
                           " " + std::to_string(rd.version));
      }
      obs::schema::TraceHeader header;
      if (!ReadRecord(rd, value, header, {})) return fail(1, rd.error);
      trace.schema_version = header.schema_version;
      trace.context = std::move(header.context);
      declared = header.num_cycles;
    } else if (!ReadRecord(rd, value, trace.cycles.emplace_back(), {})) {
      return fail(line_no, rd.error);
    }
  }
  if (line_no == 0) return fail(1, "empty trace file");
  if (trace.cycles.size() != declared) {
    return fail(1, "header declares " + std::to_string(declared) +
                       " cycles but the file has " +
                       std::to_string(trace.cycles.size()));
  }
  return trace;
}

bool ValidateTrace(const ParsedTrace& trace, int min_cycles,
                   std::string* error) {
  using obs::CycleInputRecord;
  using obs::CycleTrace;
  const auto fail = [error](std::size_t line, const std::string& message) {
    SetError(error, LineError(line, message));
    return false;
  };
  const auto count = [](std::string_view key, std::size_t entries,
                        std::string_view expected, std::int64_t want) {
    return std::string(key) + " has " + std::to_string(entries) +
           " entries, not " + std::string(expected) + " = " +
           std::to_string(want);
  };
  for (std::size_t i = 0; i < trace.cycles.size(); ++i) {
    const CycleTrace& t = trace.cycles[i];
    const std::size_t line = i + 2;  // line 1 is the header
    if (i > 0) {
      // Sweep exports concatenate runs: within a run the cycle number
      // advances by one, and a new run starts at cycle 0.
      const CycleTrace& prev = trace.cycles[i - 1];
      if (t.cycle != 0 &&
          std::int64_t{t.cycle} != std::int64_t{prev.cycle} + 1) {
        return fail(line, KeyName<&CycleTrace::cycle>() + " jumped from " +
                              std::to_string(prev.cycle) + " to " +
                              std::to_string(t.cycle));
      }
      if (t.run_id != prev.run_id && t.cycle != 0) {
        return fail(line, KeyName<&CycleTrace::run_id>() + " changed to '" +
                              t.run_id + "' without a reset to cycle 0");
      }
    }
    const std::int64_t entities =
        std::int64_t{t.num_jobs} + std::ssize(t.tx_utilities);
    if (std::ssize(t.rp_after) != entities) {
      return fail(line,
                  count(KeyName<&CycleTrace::rp_after>(), t.rp_after.size(),
                        KeyName<&CycleTrace::num_jobs>() + " + " +
                            KeyName<&CycleTrace::tx_utilities>(),
                        entities));
    }
    if (t.num_cells > 0 && std::ssize(t.cell_solver_seconds) != t.num_cells) {
      return fail(line, count(KeyName<&CycleTrace::cell_solver_seconds>(),
                              t.cell_solver_seconds.size(),
                              KeyName<&CycleTrace::num_cells>(), t.num_cells));
    }
    if (!t.input.has_value()) continue;
    const CycleInputRecord& in = *t.input;
    if (std::ssize(in.jobs) != t.num_jobs) {
      return fail(line, count(KeyName<&CycleInputRecord::jobs>(),
                              in.jobs.size(), KeyName<&CycleTrace::num_jobs>(),
                              t.num_jobs));
    }
    if (in.tx_apps.size() != t.tx_utilities.size()) {
      return fail(line, count(KeyName<&CycleInputRecord::tx_apps>(),
                              in.tx_apps.size(),
                              KeyName<&CycleTrace::tx_utilities>(),
                              std::ssize(t.tx_utilities)));
    }
    const std::size_t input_entities = in.jobs.size() + in.tx_apps.size();
    if (!in.fairness_credits.empty() &&
        in.fairness_credits.size() != input_entities) {
      return fail(line,
                  count(KeyName<&CycleInputRecord::fairness_credits>(),
                        in.fairness_credits.size(),
                        KeyName<&CycleInputRecord::jobs>() + " + " +
                            KeyName<&CycleInputRecord::tx_apps>(),
                        static_cast<std::int64_t>(input_entities)));
    }
  }
  if (std::ssize(trace.cycles) < min_cycles) {
    SetError(error, "expected at least " + std::to_string(min_cycles) +
                        " cycle records, found " +
                        std::to_string(trace.cycles.size()));
    return false;
  }
  return true;
}

std::optional<ParsedTrace> ParseTraceFile(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open trace file '" + path + "'");
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    SetError(error, "error while reading trace file '" + path + "'");
    return std::nullopt;
  }
  return ParseTraceJsonl(buffer.str(), error);
}

}  // namespace mwp::replay
