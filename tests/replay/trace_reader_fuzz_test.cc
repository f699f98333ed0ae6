// Seeded mutation fuzz test of the trace reader, the system's only parser of
// untrusted input. It needs no fuzzing engine: it builds with the local
// toolchain and runs under the ASan/UBSan lane like every other test.
//
// Seeds are two-line traces (a header plus one cycle line), one per cycle of
// the golden traces and of the wire corpus. Each mutant applies one seeded
// edit: truncate, flip a bit, swap a value's JSON type, duplicate a key or
// drop a key. Every parse must return a trace or a "line N:" error without
// throwing; every accepted mutant must re-export to a write -> parse ->
// write fixpoint and pass through ValidateTrace, and a bounded sample of
// them is replayed through ReplayCycle, which must not throw either.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "obs/trace_export.h"
#include "replay/replay.h"
#include "replay/trace_reader.h"
#include "tests/obs/trace_wire_corpus.h"

namespace mwp::replay {
namespace {

constexpr int kMutants = 12000;
constexpr int kMaxReplays = 40;

struct Seed {
  std::string text;
  bool golden = false;
};

std::string Jsonl(const obs::TraceContext& context,
                  const std::vector<obs::CycleTrace>& cycles) {
  std::ostringstream os;
  obs::WriteTraceJsonl(os, context, cycles);
  return os.str();
}

std::vector<Seed> Seeds() {
  std::vector<Seed> seeds;
  const std::string dir = MWP_GOLDEN_TRACE_DIR;
  for (const char* name :
       {"alibaba_small.jsonl", "exp1_small.jsonl", "node_failure.jsonl"}) {
    std::string error;
    const auto trace = ParseTraceFile(dir + "/" + name, &error);
    EXPECT_TRUE(trace.has_value()) << name << ": " << error;
    if (!trace.has_value()) continue;
    for (const obs::CycleTrace& cycle : trace->cycles) {
      seeds.push_back({Jsonl(trace->context, {cycle}), true});
    }
  }
  for (const obs::WireTrace& trace : obs::WireCorpus()) {
    for (const obs::CycleTrace& cycle : trace.cycles) {
      seeds.push_back({Jsonl(trace.context, {cycle}), false});
    }
  }
  return seeds;
}

/// End of the JSON value starting at `pos` (one past its last byte), by
/// bracket and string matching only; good enough to cut well-formed seeds.
std::size_t ValueEnd(const std::string& text, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (depth == 0) return i;
      if (--depth == 0) return i + 1;
    } else if ((c == ',' || c == '\n') && depth == 0) {
      return i;
    }
  }
  return text.size();
}

/// A `"key":value` member of some object: [begin, end) covers both.
struct Member {
  std::size_t begin = 0;
  std::size_t value = 0;
  std::size_t end = 0;
};

std::vector<Member> Members(const std::string& text) {
  std::vector<Member> members;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '"') continue;
    std::size_t close = i + 1;
    while (close < text.size() && text[close] != '"') {
      close += text[close] == '\\' ? 2 : 1;
    }
    if (close + 1 < text.size() && text[close + 1] == ':') {
      members.push_back({i, close + 2, ValueEnd(text, close + 2)});
    }
    i = close;
  }
  return members;
}

enum class Mutation { kTruncate, kFlip, kSwapType, kDuplicateKey, kDropKey };
constexpr int kNumMutations = 5;

std::string Mutate(const std::string& seed, Mutation kind, Rng& rng) {
  std::string text = seed;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  if (kind == Mutation::kTruncate) return text.substr(0, pick(text.size()));
  if (kind == Mutation::kFlip) {
    text[pick(text.size())] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
    return text;
  }
  const std::vector<Member> members = Members(text);
  const Member m = members[pick(members.size())];
  switch (kind) {
    case Mutation::kSwapType: {
      static const char* const kValues[] = {
          "null", "true", "false", "\"s\"", "2.5", "-1", "1e20", "[]",
          "{}", "[1,2]", "[null]", "18446744073709551616", "0", "1e-400"};
      const std::string value = kValues[pick(std::size(kValues))];
      return text.substr(0, m.value) + value + text.substr(m.end);
    }
    case Mutation::kDuplicateKey:
      return text.substr(0, m.end) + "," +
             text.substr(m.begin, m.end - m.begin) + text.substr(m.end);
    case Mutation::kDropKey:
      if (m.end < text.size() && text[m.end] == ',') {
        return text.substr(0, m.begin) + text.substr(m.end + 1);
      }
      if (m.begin > 0 && text[m.begin - 1] == ',') {
        return text.substr(0, m.begin - 1) + text.substr(m.end);
      }
      return text.substr(0, m.begin) + text.substr(m.end);
    default:
      return text;
  }
}

/// "line N: ..." with N >= 1.
bool IsLineError(const std::string& error) {
  if (error.rfind("line ", 0) != 0) return false;
  std::size_t i = 5;
  while (i < error.size() &&
         std::isdigit(static_cast<unsigned char>(error[i]))) {
    ++i;
  }
  return i > 5 && error.compare(i, 2, ": ") == 0 && error[5] != '0';
}

TEST(TraceReaderFuzzTest, MutantsParseOrFailWithALineNumber) {
  const std::vector<Seed> seeds = Seeds();
  ASSERT_GT(seeds.size(), 200u);
  Rng rng(20261018);
  int accepted[kNumMutations] = {};
  int rejected[kNumMutations] = {};
  int replays = 0;
  for (int i = 0; i < kMutants; ++i) {
    const Seed& seed = seeds[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    const int kind = static_cast<int>(rng.UniformInt(0, kNumMutations - 1));
    const std::string mutant =
        Mutate(seed.text, static_cast<Mutation>(kind), rng);

    std::string error;
    std::optional<ParsedTrace> parsed;
    ASSERT_NO_THROW(parsed = ParseTraceJsonl(mutant, &error)) << mutant;
    if (!parsed.has_value()) {
      ++rejected[kind];
      ASSERT_TRUE(IsLineError(error)) << error << "\n" << mutant;
      continue;
    }
    ++accepted[kind];

    // Whatever the reader accepts, the writer can write, and the written
    // form is a fixpoint of parse -> write.
    const std::string first = Jsonl(parsed->context, parsed->cycles);
    const auto again = ParseTraceJsonl(first, &error);
    ASSERT_TRUE(again.has_value()) << error << "\n" << mutant;
    ASSERT_EQ(Jsonl(again->context, again->cycles), first) << mutant;
    ValidateTrace(*parsed, 1, &error);

    if (seed.golden && replays < kMaxReplays && rng.Uniform01() < 0.5) {
      ++replays;
      for (const obs::CycleTrace& cycle : parsed->cycles) {
        ASSERT_NO_THROW(ReplayCycle(cycle, ReplayOptions{})) << mutant;
      }
    }
  }
  int total_accepted = 0;
  for (int kind = 0; kind < kNumMutations; ++kind) {
    std::printf("mutation %d: %d accepted, %d rejected\n", kind,
                accepted[kind], rejected[kind]);
    total_accepted += accepted[kind];
    EXPECT_GT(rejected[kind], 0) << "mutation " << kind;
  }
  std::printf("replayed %d accepted mutants\n", replays);
  // Bit flips inside numbers and strings keep a record valid, so the
  // fixpoint and replay checks above see real traffic.
  EXPECT_GT(accepted[static_cast<int>(Mutation::kFlip)], 100);
  EXPECT_GT(total_accepted, 500);
  EXPECT_EQ(replays, kMaxReplays);
}

}  // namespace
}  // namespace mwp::replay
