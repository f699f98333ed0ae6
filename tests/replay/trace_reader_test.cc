#include "replay/trace_reader.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp::replay {
namespace {

// The schema-v1 wire format, frozen when kTraceSchemaVersion was bumped to 2:
// archived traces must keep parsing (with empty run ids and no input).
constexpr const char* kV1Trace =
    R"({"record":"header","schema_version":1,"experiment":"golden","seed":7,"control_cycle":600,"build_type":"Release","git_sha":"deadbeef","num_cycles":2}
{"record":"cycle","cycle":0,"time":0,"avg_job_rp":0.75,"min_job_rp":0.5,"num_jobs":2,"running_jobs":2,"queued_jobs":0,"suspended_jobs":0,"batch_allocation":1024,"tx_allocation":512,"cluster_utilization":0.75,"starts":2,"stops":0,"suspends":0,"resumes":0,"migrations":0,"failed_operations":0,"evaluations":3,"shortcut":false,"solver_seconds":0.25,"cache_hits":4,"cache_misses":2,"distribute_calls":6,"nodes_online":2,"nodes_degraded":1,"nodes_offline":0,"available_cpu":3000,"nominal_cpu":3200,"rp_before":[0.5,0.75],"rp_after":[0.75,0.75],"tx_utilities":[0.5],"tx_allocations":[512]}
{"record":"cycle","cycle":1,"time":600,"avg_job_rp":null,"min_job_rp":null,"num_jobs":0,"running_jobs":0,"queued_jobs":0,"suspended_jobs":0,"batch_allocation":0,"tx_allocation":0,"cluster_utilization":0,"starts":0,"stops":0,"suspends":0,"resumes":0,"migrations":0,"failed_operations":0,"evaluations":0,"shortcut":true,"solver_seconds":0,"cache_hits":0,"cache_misses":0,"distribute_calls":0,"nodes_online":3,"nodes_degraded":0,"nodes_offline":0,"available_cpu":3200,"nominal_cpu":3200,"rp_before":[],"rp_after":[],"tx_utilities":[],"tx_allocations":[]}
)";

TEST(TraceReaderTest, ParsesArchivedV1Trace) {
  std::string error;
  const auto trace = ParseTraceJsonl(kV1Trace, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->schema_version, 1);
  EXPECT_EQ(trace->context.experiment, "golden");
  EXPECT_EQ(trace->context.seed, 7u);
  EXPECT_TRUE(trace->context.run_id.empty());
  ASSERT_EQ(trace->cycles.size(), 2u);

  const obs::CycleTrace& a = trace->cycles[0];
  EXPECT_TRUE(a.run_id.empty());
  EXPECT_EQ(a.cycle, 0);
  EXPECT_EQ(a.num_jobs, 2);
  EXPECT_DOUBLE_EQ(a.avg_job_rp, 0.75);
  EXPECT_EQ(a.rp_before, (std::vector<Utility>{0.5, 0.75}));
  EXPECT_EQ(a.node_health.degraded, 1);
  EXPECT_FALSE(a.input.has_value());
  EXPECT_FALSE(a.decision.has_value());

  const obs::CycleTrace& b = trace->cycles[1];
  EXPECT_TRUE(std::isnan(b.avg_job_rp));
  EXPECT_TRUE(b.shortcut);
  EXPECT_TRUE(b.rp_after.empty());
}

TEST(TraceReaderTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseTraceJsonl("", &error).has_value());
  EXPECT_FALSE(ParseTraceJsonl("garbage\n", &error).has_value());

  // Unsupported schema version.
  EXPECT_FALSE(
      ParseTraceJsonl(
          R"({"record":"header","schema_version":3,"run_id":"","experiment":"x","seed":1,"control_cycle":1,"build_type":"b","git_sha":"g","num_cycles":0})"
          "\n",
          &error)
          .has_value());
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  // Header promises more cycles than the file contains (truncated export).
  EXPECT_FALSE(
      ParseTraceJsonl(
          R"({"record":"header","schema_version":2,"run_id":"","experiment":"x","seed":1,"control_cycle":1,"build_type":"b","git_sha":"g","num_cycles":2})"
          "\n",
          &error)
          .has_value());
}

TEST(TraceReaderTest, ReportsLineNumbersInErrors) {
  std::string error;
  const std::string text =
      R"({"record":"header","schema_version":2,"run_id":"","experiment":"x","seed":1,"control_cycle":1,"build_type":"b","git_sha":"g","num_cycles":1})"
      "\nnot json\n";
  EXPECT_FALSE(ParseTraceJsonl(text, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// --- the reader accepts exactly what the writer emits ----------------------

// A one-cycle trace that carries every optional group of the cycle, input and
// options records, so each probe below edits a record the writer produced.
std::string SchemaProbeBase() {
  obs::TraceContext context;
  context.experiment = "probe";
  context.seed = 3;
  context.control_cycle = 600.0;
  context.build_type = "Release";
  context.git_sha = "cafef00d";
  context.run_id = "r";
  obs::CycleTrace t;
  t.run_id = "r";
  t.num_jobs = 1;
  t.stops = 4;
  t.rp_after = {0.5, 0.25};
  t.tx_utilities = {0.25};
  t.tx_allocations = {512.0};
  t.num_cells = 2;
  t.cross_cell_migrations = 1;
  t.cell_solver_seconds = {0.5, 0.25};
  t.trigger = "event";
  obs::CycleInputRecord in;
  in.control_cycle = 600.0;
  in.nodes = {{2, 3000.0, 4096.0, 0, 1.0}};
  obs::TraceJobInput job;
  job.id = 1;
  job.stages = {{9000.0, 1500.0, 0.0, 512.0}};
  in.jobs = {job};
  obs::TraceTxInput tx;
  tx.id = 2;
  tx.name = "tx";
  tx.current_nodes = {0};
  in.tx_apps = {tx};
  in.options.cell_size = 2;
  in.options.partition_seed = 11;
  in.options.objective = 1;
  in.options.pf_epsilon = 0.125;
  in.pins = {{2, {0}}};
  in.separations = {{1, 2}};
  in.fairness_credits = {1.5, 2.5};
  t.input = in;
  obs::CycleDecisionRecord d;
  d.placement = {{0, 0, 1}, {1, 0, 1}};
  d.allocations = {1024.0, 512.0};
  t.decision = d;
  std::ostringstream os;
  obs::WriteTraceJsonl(os, context, std::vector<obs::CycleTrace>{t});
  return os.str();
}

/// `text` with its one occurrence of `from` replaced by `to`.
std::string Edited(const std::string& text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "probe text lacks " << from;
  EXPECT_EQ(text.find(from, at + 1), std::string::npos)
      << "probe text repeats " << from;
  if (at == std::string::npos) return text;
  return text.substr(0, at) + to + text.substr(at + from.size());
}

TEST(TraceReaderTest, RejectsRecordsOutsideTheSchema) {
  const std::string base = SchemaProbeBase();
  std::string error;
  ASSERT_TRUE(ParseTraceJsonl(base, &error).has_value()) << error;
  ASSERT_TRUE(ValidateTrace(*ParseTraceJsonl(base, &error), 1, &error))
      << error;

  const std::size_t decision_at = base.find(",\"decision\":");
  ASSERT_NE(decision_at, std::string::npos);
  const std::string without_decision = base.substr(0, decision_at) + "}\n";

  struct Probe {
    const char* what;
    std::string text;
    int line;
    const char* key;
  };
  const std::vector<Probe> probes = {
      {"unknown key",
       Edited(base, R"("evaluations":0,)", R"("bogus":1,"evaluations":0,)"),
       2, "bogus"},
      {"duplicate key", Edited(base, R"("stops":4,)", R"("stops":4,"stops":5,)"),
       2, "stops"},
      {"duplicate header key", Edited(base, R"("seed":3,)", R"("seed":3,"seed":3,)"),
       1, "seed"},
      {"half-present sharded cycle group",
       Edited(base, R"("cross_cell_migrations":1,)", ""), 2,
       "cross_cell_migrations"},
      {"half-present sharded options group",
       Edited(base, R"("cell_size":2,)", ""), 2, "partition_seed"},
      {"group present although its condition is off",
       Edited(base, R"("num_cells":2,)", R"("num_cells":0,)"), 2, "num_cells"},
      {"objective group without pf_epsilon",
       Edited(base, R"(,"pf_epsilon":0.125)", ""), 2, "pf_epsilon"},
      {"input without decision", without_decision, 2, "decision"},
      {"fractional placement cell", Edited(base, "[1,0,1]", "[1,0,1.5]"), 2,
       "placement"},
      {"out-of-range placement cell", Edited(base, "[1,0,1]", "[1e20,0,1]"), 2,
       "placement"},
      {"null placement cell", Edited(base, "[1,0,1]", "[null,0,1]"), 2,
       "placement"},
      {"placement cell of two", Edited(base, "[1,0,1]", "[1,0]"), 2,
       "placement"},
      {"fractional separation", Edited(base, "[[1,2]]", "[[1,2.5]]"), 2,
       "separations"},
      {"out-of-range pin node",
       Edited(base, R"({"app":2,"nodes":[0]})", R"({"app":2,"nodes":[1e300]})"),
       2, "nodes"},
      {"integer given as 2.5", Edited(base, R"("num_jobs":1,)", R"("num_jobs":2.5,)"),
       2, "num_jobs"},
      {"integer given as true",
       Edited(base, R"("num_jobs":1,)", R"("num_jobs":true,)"), 2, "num_jobs"},
      {"integer given as null",
       Edited(base, R"("num_jobs":1,)", R"("num_jobs":null,)"), 2, "num_jobs"},
      {"negative unsigned integer",
       Edited(base, R"("partition_seed":11,)", R"("partition_seed":-11,)"), 2,
       "partition_seed"},
      {"boolean given as 0",
       Edited(base, R"("shortcut":false,)", R"("shortcut":0,)"), 2, "shortcut"},
      {"run_id in a v1 cycle",
       Edited(kV1Trace, R"({"record":"cycle","cycle":1,)",
              R"({"record":"cycle","run_id":"r","cycle":1,)"),
       3, "run_id"},
  };
  for (const Probe& probe : probes) {
    SCOPED_TRACE(probe.what);
    error.clear();
    EXPECT_FALSE(ParseTraceJsonl(probe.text, &error).has_value());
    const std::string line = "line " + std::to_string(probe.line) + ":";
    EXPECT_EQ(error.rfind(line, 0), 0u) << error;
    EXPECT_NE(error.find(std::string("'") + probe.key + "'"),
              std::string::npos)
        << error;
  }
}

TEST(TraceReaderTest, ValidateTraceChecksCrossRecordRules) {
  const std::string base = SchemaProbeBase();
  std::string error;
  const auto parsed = ParseTraceJsonl(base, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  // Each case breaks one rule the field lists cannot state.
  const auto check = [](ParsedTrace trace, int min_cycles,
                        const std::string& expected) {
    std::string message;
    EXPECT_FALSE(ValidateTrace(trace, min_cycles, &message)) << expected;
    EXPECT_NE(message.find(expected), std::string::npos) << message;
  };
  ParsedTrace trace = *parsed;
  trace.cycles[0].rp_after.pop_back();
  check(trace, 1, "line 2: rp_after");

  trace = *parsed;
  trace.cycles[0].cell_solver_seconds.pop_back();
  check(trace, 1, "line 2: cell_solver_seconds");

  trace = *parsed;
  trace.cycles[0].input->jobs.push_back(trace.cycles[0].input->jobs[0]);
  trace.cycles[0].input->fairness_credits.push_back(0.0);
  check(trace, 1, "line 2: jobs");

  trace = *parsed;
  trace.cycles[0].input->tx_apps.clear();
  trace.cycles[0].input->fairness_credits.pop_back();
  check(trace, 1, "line 2: tx");

  trace = *parsed;
  trace.cycles[0].input->fairness_credits.push_back(0.0);
  check(trace, 1, "line 2: credits");

  trace = *parsed;
  trace.cycles.push_back(trace.cycles[0]);
  trace.cycles[1].cycle = 2;
  check(trace, 1, "line 3: cycle jumped from 0 to 2");

  trace.cycles[1].cycle = 1;
  trace.cycles[1].run_id = "other";
  check(trace, 1, "line 3: run_id changed");

  trace.cycles[1].cycle = 0;  // a new run segment starts at cycle 0
  EXPECT_TRUE(ValidateTrace(trace, 2, &error)) << error;
  check(trace, 3, "expected at least 3 cycle records, found 2");
}

// --- serialize → parse → serialize byte-stability property --------------

std::vector<Utility> RandomVector(Rng& rng, int max_len) {
  std::vector<Utility> v(static_cast<std::size_t>(rng.UniformInt(0, max_len)));
  for (Utility& u : v) u = rng.Uniform(-2.0, 2.0);
  return v;
}

obs::CycleInputRecord RandomInput(Rng& rng) {
  obs::CycleInputRecord in;
  in.now = rng.Uniform(0.0, 1e6);
  in.control_cycle = rng.Uniform(1.0, 1000.0);
  const int num_nodes = static_cast<int>(rng.UniformInt(1, 3));
  for (int n = 0; n < num_nodes; ++n) {
    obs::TraceNodeInput node;
    node.num_cpus = static_cast<int>(rng.UniformInt(1, 4));
    node.cpu_speed = rng.Uniform(500.0, 4000.0);
    node.memory = rng.Uniform(1024.0, 16384.0);
    node.state = static_cast<int>(rng.UniformInt(0, 2));
    node.speed_factor = rng.Uniform(0.1, 1.0);
    in.nodes.push_back(node);
  }
  const int num_jobs = static_cast<int>(rng.UniformInt(0, 2));
  for (int j = 0; j < num_jobs; ++j) {
    obs::TraceJobInput job;
    job.id = static_cast<AppId>(rng.UniformInt(1, 100));
    job.submit_time = rng.Uniform(0.0, 1e5);
    job.desired_start = rng.Uniform(0.0, 1e5);
    job.completion_goal = rng.Uniform(0.0, 1e6);
    job.work_done = rng.Uniform(0.0, 1e6);
    job.status = static_cast<int>(rng.UniformInt(0, 4));
    job.current_node =
        static_cast<NodeId>(rng.UniformInt(-1, num_nodes - 1));
    job.overhead_until = rng.Uniform(0.0, 100.0);
    job.place_overhead = rng.Uniform(0.0, 100.0);
    job.migrate_overhead = rng.Uniform(0.0, 100.0);
    job.memory = rng.Uniform(128.0, 8192.0);
    job.max_speed = rng.Uniform(100.0, 4000.0);
    job.min_speed = rng.Uniform(0.0, 100.0);
    const int num_stages = static_cast<int>(rng.UniformInt(1, 2));
    for (int s = 0; s < num_stages; ++s) {
      job.stages.push_back({rng.Uniform(1.0, 1e6), rng.Uniform(100.0, 4000.0),
                            rng.Uniform(0.0, 100.0),
                            rng.Uniform(128.0, 8192.0)});
    }
    in.jobs.push_back(std::move(job));
  }
  if (rng.Uniform01() < 0.5) {
    obs::TraceTxInput tx;
    tx.id = static_cast<AppId>(rng.UniformInt(101, 200));
    tx.name = "tx" + std::to_string(rng.UniformInt(0, 9));
    tx.memory = rng.Uniform(128.0, 4096.0);
    tx.response_time_goal = rng.Uniform(0.01, 2.0);
    tx.demand_per_request = rng.Uniform(0.1, 20.0);
    tx.min_response_time = rng.Uniform(0.001, 0.01);
    tx.saturation = rng.Uniform(0.1, 1.0);
    tx.max_instances = static_cast<int>(rng.UniformInt(1, 5));
    tx.arrival_rate = rng.Uniform(0.0, 2000.0);
    for (int n = 0; n < num_nodes; ++n) {
      if (rng.Uniform01() < 0.5) tx.current_nodes.push_back(n);
    }
    in.tx_apps.push_back(std::move(tx));
  }
  in.options.max_sweeps = static_cast<int>(rng.UniformInt(1, 4));
  in.options.max_evaluations = static_cast<int>(rng.UniformInt(0, 1000));
  in.options.tie_tolerance = rng.Uniform(0.0, 0.1);
  const int grid_size = static_cast<int>(rng.UniformInt(0, 2));
  for (int g = 0; g < grid_size; ++g) {
    in.options.grid.push_back(rng.Uniform(0.0, 1.0));
  }
  in.options.level_tolerance = rng.Uniform(1e-6, 1e-3);
  in.options.probe_delta = rng.Uniform(1e-4, 1e-2);
  in.options.bisection_iters = static_cast<int>(rng.UniformInt(8, 64));
  in.options.batch_aggregate = rng.Uniform01() < 0.5;
  if (rng.Uniform01() < 0.5) {
    obs::TracePin pin;
    pin.app = static_cast<AppId>(rng.UniformInt(1, 100));
    pin.nodes.push_back(static_cast<NodeId>(rng.UniformInt(0, num_nodes - 1)));
    in.pins.push_back(std::move(pin));
  }
  if (rng.Uniform01() < 0.5) {
    in.separations.push_back({static_cast<AppId>(rng.UniformInt(1, 100)),
                              static_cast<AppId>(rng.UniformInt(101, 200))});
  }
  return in;
}

obs::CycleDecisionRecord RandomDecision(Rng& rng) {
  obs::CycleDecisionRecord d;
  const int cells = static_cast<int>(rng.UniformInt(0, 3));
  for (int c = 0; c < cells; ++c) {
    d.placement.push_back({static_cast<int>(rng.UniformInt(0, 5)),
                           static_cast<int>(rng.UniformInt(0, 3)),
                           static_cast<int>(rng.UniformInt(1, 2))});
  }
  const int allocs = static_cast<int>(rng.UniformInt(0, 4));
  for (int a = 0; a < allocs; ++a) {
    d.allocations.push_back(rng.Uniform(0.0, 10000.0));
  }
  return d;
}

obs::CycleTrace RandomCycle(Rng& rng, int cycle) {
  obs::CycleTrace t;
  if (rng.Uniform01() < 0.7) {
    t.run_id = "run" + std::to_string(rng.UniformInt(0, 9));
  }
  t.cycle = cycle;
  t.time = rng.Uniform(0.0, 1e6);
  t.avg_job_rp = rng.Uniform01() < 0.2
                     ? std::numeric_limits<double>::quiet_NaN()
                     : rng.Uniform(0.0, 1.0);
  t.min_job_rp = rng.Uniform(0.0, 1.0);
  t.num_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.running_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.queued_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.suspended_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.batch_allocation = rng.Uniform(0.0, 1e5);
  t.tx_allocation = rng.Uniform(0.0, 1e5);
  t.cluster_utilization = rng.Uniform01();
  t.starts = static_cast<int>(rng.UniformInt(0, 10));
  t.stops = static_cast<int>(rng.UniformInt(0, 10));
  t.suspends = static_cast<int>(rng.UniformInt(0, 10));
  t.resumes = static_cast<int>(rng.UniformInt(0, 10));
  t.migrations = static_cast<int>(rng.UniformInt(0, 10));
  t.failed_operations = static_cast<int>(rng.UniformInt(0, 3));
  t.evaluations = static_cast<int>(rng.UniformInt(0, 1000));
  t.shortcut = rng.Uniform01() < 0.3;
  t.solver_seconds = rng.Uniform(0.0, 10.0);
  t.cache_hits = static_cast<std::uint64_t>(rng.UniformInt(0, 1000));
  t.cache_misses = static_cast<std::uint64_t>(rng.UniformInt(0, 1000));
  t.distribute_calls = static_cast<std::uint64_t>(rng.UniformInt(0, 1000));
  t.node_health = {static_cast<int>(rng.UniformInt(0, 10)),
                   static_cast<int>(rng.UniformInt(0, 10)),
                   static_cast<int>(rng.UniformInt(0, 10)),
                   rng.Uniform(0.0, 1e5), rng.Uniform(0.0, 1e5)};
  t.rp_before = RandomVector(rng, 4);
  t.rp_after = RandomVector(rng, 4);
  t.tx_utilities = RandomVector(rng, 2);
  t.tx_allocations.resize(t.tx_utilities.size());
  for (MHz& alloc : t.tx_allocations) alloc = rng.Uniform(0.0, 1e4);
  if (rng.Uniform01() < 0.6) {
    t.input = RandomInput(rng);
    t.decision = RandomDecision(rng);
  }
  return t;
}

TEST(TraceReaderTest, SerializeParseSerializeIsByteStable) {
  // The exporter writes shortest-round-trip doubles and the reader parses
  // them back with from_chars; re-serializing a parsed trace must reproduce
  // the input byte for byte, for arbitrary (not hand-friendly) values.
  Rng rng(20260806);
  for (int iteration = 0; iteration < 50; ++iteration) {
    obs::TraceContext context;
    context.experiment = "prop" + std::to_string(iteration);
    context.seed = static_cast<std::uint64_t>(rng.UniformInt(0, 1 << 30));
    context.control_cycle = rng.Uniform(1.0, 1000.0);
    context.build_type = "Release";
    context.git_sha = "cafef00d";
    if (rng.Uniform01() < 0.5) {
      context.run_id = "sweep" + std::to_string(rng.UniformInt(0, 99));
    }
    std::vector<obs::CycleTrace> cycles;
    const int num_cycles = static_cast<int>(rng.UniformInt(0, 3));
    for (int c = 0; c < num_cycles; ++c) cycles.push_back(RandomCycle(rng, c));

    std::ostringstream first;
    obs::WriteTraceJsonl(first, context, cycles);

    std::string error;
    const auto parsed = ParseTraceJsonl(first.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << "iteration " << iteration << ": "
                                    << error << "\n" << first.str();
    EXPECT_EQ(parsed->schema_version, obs::kTraceSchemaVersion);
    ASSERT_EQ(parsed->cycles.size(), cycles.size());

    std::ostringstream second;
    obs::WriteTraceJsonl(second, parsed->context, parsed->cycles);
    EXPECT_EQ(first.str(), second.str()) << "iteration " << iteration;
  }
}

TEST(TraceReaderTest, ParsedStructsCompareEqualToOriginals) {
  // Beyond byte stability, the parsed structs must equal the originals via
  // operator== whenever no NaN is involved (NaN breaks == by design).
  Rng rng(7);
  obs::TraceContext context;
  context.experiment = "eq";
  context.seed = 1;
  context.control_cycle = 600.0;
  context.build_type = "Release";
  context.git_sha = "cafef00d";
  context.run_id = "r";
  obs::CycleTrace cycle = RandomCycle(rng, 0);
  cycle.avg_job_rp = 0.5;  // keep NaN out so operator== is meaningful
  cycle.input = RandomInput(rng);
  cycle.decision = RandomDecision(rng);

  std::ostringstream os;
  obs::WriteTraceJsonl(os, context, std::vector<obs::CycleTrace>{cycle});
  std::string error;
  const auto parsed = ParseTraceJsonl(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->cycles.size(), 1u);
  EXPECT_EQ(parsed->cycles[0].input, cycle.input);
  EXPECT_EQ(parsed->cycles[0].decision, cycle.decision);
  EXPECT_EQ(parsed->cycles[0].run_id, cycle.run_id);
}

}  // namespace
}  // namespace mwp::replay
