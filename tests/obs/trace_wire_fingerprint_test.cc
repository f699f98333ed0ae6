// Cross-commit pin of the trace wire format. The golden-string tests in
// trace_export_test.cc cover two hand-built cycles and none of the optional
// groups; this test folds the JSONL and CSV bytes of a seeded corpus that
// carries every group (see trace_wire_corpus.h) into two FNV-1a hashes,
// recorded when the test was introduced. A change that moves either hash
// changed the bytes the exporters write. It also checks that parsing an
// export and writing it again reproduces the bytes, for the corpus and for
// the checked-in golden traces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/trace_export.h"
#include "replay/trace_reader.h"
#include "tests/obs/trace_wire_corpus.h"

namespace mwp::obs {
namespace {

/// FNV-1a 64 over a byte stream.
class Fnv1a {
 public:
  void Bytes(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::string Jsonl(const WireTrace& trace) {
  std::ostringstream os;
  WriteTraceJsonl(os, trace.context, trace.cycles);
  return os.str();
}

std::string Csv(const WireTrace& trace) {
  std::ostringstream os;
  WriteTraceCsv(os, trace.context, trace.cycles);
  return os.str();
}

TEST(TraceWireFingerprintTest, CorpusCarriesEveryGroupPresentAndAbsent) {
  // Counts of (present, absent) per optional group; a pin over a corpus
  // that never emits a group would not notice that group's bytes moving.
  int scenario[2] = {0, 0};
  int input[2] = {0, 0};
  int sharded_options[2] = {0, 0};
  int objective[2] = {0, 0};
  int credits[2] = {0, 0};
  int sharded_cycle[2] = {0, 0};
  int trigger[2] = {0, 0};
  int non_finite = 0;
  for (const WireTrace& trace : WireCorpus()) {
    ++scenario[trace.context.scenario.empty()];
    for (const CycleTrace& t : trace.cycles) {
      ++input[!t.input.has_value()];
      ++sharded_cycle[t.num_cells <= 0];
      ++trigger[t.trigger.empty()];
      non_finite += !std::isfinite(t.time) || !std::isfinite(t.avg_job_rp);
      if (!t.input.has_value()) continue;
      ++sharded_options[t.input->options.cell_size <= 0];
      ++objective[t.input->options.objective == 0];
      ++credits[t.input->fairness_credits.empty()];
    }
  }
  for (const int* group : {scenario, input, sharded_options, objective,
                           credits, sharded_cycle, trigger}) {
    EXPECT_GT(group[0], 5);
    EXPECT_GT(group[1], 5);
  }
  EXPECT_GT(non_finite, 5);

  std::string all;
  for (const WireTrace& trace : WireCorpus()) all += Jsonl(trace);
  for (const char* escaped : {R"(\")", R"(\\)", R"(\n)", R"(\t)", R"("")",
                              "null", "18446744073709551615",
                              "2147483647", "-2147483648"}) {
    EXPECT_NE(all.find(escaped), std::string::npos) << escaped;
  }
}

TEST(TraceWireFingerprintTest, ExportedBytesAreAsRecorded) {
  Fnv1a jsonl;
  Fnv1a csv;
  std::size_t jsonl_bytes = 0;
  std::size_t csv_bytes = 0;
  for (const WireTrace& trace : WireCorpus()) {
    const std::string j = Jsonl(trace);
    const std::string c = Csv(trace);
    jsonl.Bytes(j);
    csv.Bytes(c);
    jsonl_bytes += j.size();
    csv_bytes += c.size();
  }
  std::printf("wire fingerprint: jsonl=0x%016llx (%zu bytes) "
              "csv=0x%016llx (%zu bytes)\n",
              static_cast<unsigned long long>(jsonl.value()), jsonl_bytes,
              static_cast<unsigned long long>(csv.value()), csv_bytes);
  EXPECT_EQ(jsonl.value(), 0x5d4293e863f96ea3ULL);
  EXPECT_EQ(csv.value(), 0x7f73cea4fc294ae2ULL);
}

TEST(TraceWireFingerprintTest, ParseThenWriteReproducesCorpusBytes) {
  int index = 0;
  for (const WireTrace& trace : WireCorpus()) {
    const std::string first = Jsonl(trace);
    std::string error;
    const auto parsed = replay::ParseTraceJsonl(first, &error);
    ASSERT_TRUE(parsed.has_value()) << "trace " << index << ": " << error
                                    << "\n" << first;
    std::ostringstream second;
    WriteTraceJsonl(second, parsed->context, parsed->cycles);
    EXPECT_EQ(second.str(), first) << "trace " << index;
    ++index;
  }
}

TEST(TraceWireFingerprintTest, ParseThenWriteReproducesGoldenBytes) {
  const std::string dir = MWP_GOLDEN_TRACE_DIR;
  for (const char* name :
       {"alibaba_small.jsonl", "exp1_small.jsonl", "node_failure.jsonl"}) {
    SCOPED_TRACE(name);
    std::ifstream in(dir + "/" + name, std::ios::binary);
    ASSERT_TRUE(in) << "cannot open golden trace";
    std::ostringstream file;
    file << in.rdbuf();
    std::string error;
    const auto parsed = replay::ParseTraceJsonl(file.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    std::ostringstream rewritten;
    WriteTraceJsonl(rewritten, parsed->context, parsed->cycles);
    EXPECT_EQ(rewritten.str(), file.str());
  }
}

}  // namespace
}  // namespace mwp::obs
