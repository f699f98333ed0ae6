#include "obs/trace_export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/build_info.h"

namespace mwp::obs {
namespace {

// A fixed two-cycle run with a pinned context (NOT BuildInfo's — goldens
// must not depend on how the test was built). Values are chosen to be
// exactly representable so the shortest-round-trip formatting is stable.
TraceContext GoldenContext() {
  TraceContext context;
  context.experiment = "golden";
  context.seed = 7;
  context.control_cycle = 600.0;
  context.build_type = "Release";
  context.git_sha = "deadbeef";
  context.run_id = "golden-run";
  return context;
}

// Full optimizer input/decision pair for the first golden cycle, pinning the
// schema-v2 "input"/"decision" wire format byte for byte.
CycleInputRecord GoldenInput() {
  CycleInputRecord in;
  in.now = 0.0;
  in.control_cycle = 600.0;
  in.nodes = {{2, 3000.0, 4096.0, 0, 1.0}};
  TraceJobInput job;
  job.id = 1;
  job.submit_time = 0.0;
  job.desired_start = 0.0;
  job.completion_goal = 1200.0;
  job.work_done = 0.0;
  job.status = 1;
  job.current_node = 0;
  job.overhead_until = 0.0;
  job.place_overhead = 30.0;
  job.migrate_overhead = 60.0;
  job.memory = 512.0;
  job.max_speed = 1500.0;
  job.min_speed = 0.0;
  job.stages = {{90000.0, 1500.0, 0.0, 512.0}};
  in.jobs = {job};
  TraceTxInput tx;
  tx.id = 2;
  tx.name = "tx";
  tx.memory = 256.0;
  tx.response_time_goal = 0.5;
  tx.demand_per_request = 6.0;
  tx.min_response_time = 0.05;
  tx.saturation = 0.66;
  tx.max_instances = 2;
  tx.arrival_rate = 100.0;
  tx.current_nodes = {0};
  in.tx_apps = {tx};
  in.options.grid = {0.5, 1.0};
  in.pins = {{2, {0}}};
  in.separations = {{1, 2}};
  return in;
}

CycleDecisionRecord GoldenDecision() {
  CycleDecisionRecord d;
  d.placement = {{1, 0, 1}, {2, 0, 1}};
  d.allocations = {1024.0, 512.0};
  return d;
}

std::vector<CycleTrace> GoldenTraces() {
  CycleTrace a;
  a.run_id = "golden-run";
  a.cycle = 0;
  a.time = 0.0;
  a.rp_before = {0.5, 0.75};
  a.rp_after = {0.75, 0.75};
  a.avg_job_rp = 0.75;
  a.min_job_rp = 0.5;
  a.num_jobs = 2;
  a.running_jobs = 2;
  a.batch_allocation = 1024.0;
  a.tx_allocation = 512.0;
  a.cluster_utilization = 0.75;
  a.starts = 2;
  a.evaluations = 3;
  a.solver_seconds = 0.25;
  a.cache_hits = 4;
  a.cache_misses = 2;
  a.distribute_calls = 6;
  a.node_health = {2, 1, 0, 3000.0, 3200.0};
  a.tx_utilities = {0.5};
  a.tx_allocations = {512.0};
  a.input = GoldenInput();
  a.decision = GoldenDecision();

  CycleTrace b;  // empty system: NaN averages, shortcut cycle, no input
  b.run_id = "golden-run";
  b.cycle = 1;
  b.time = 600.0;
  b.avg_job_rp = std::numeric_limits<double>::quiet_NaN();
  b.min_job_rp = std::numeric_limits<double>::quiet_NaN();
  b.shortcut = true;
  b.node_health = {3, 0, 0, 3200.0, 3200.0};
  return {a, b};
}

// Schema v2 golden output, byte for byte. If a change to the exporters
// breaks this test, that change altered the wire format: bump
// kTraceSchemaVersion and regenerate BOTH goldens deliberately.
constexpr const char* kGoldenJsonl =
    R"({"record":"header","schema_version":2,"run_id":"golden-run","experiment":"golden","seed":7,"control_cycle":600,"build_type":"Release","git_sha":"deadbeef","num_cycles":2}
{"record":"cycle","run_id":"golden-run","cycle":0,"time":0,"avg_job_rp":0.75,"min_job_rp":0.5,"num_jobs":2,"running_jobs":2,"queued_jobs":0,"suspended_jobs":0,"batch_allocation":1024,"tx_allocation":512,"cluster_utilization":0.75,"starts":2,"stops":0,"suspends":0,"resumes":0,"migrations":0,"failed_operations":0,"evaluations":3,"shortcut":false,"solver_seconds":0.25,"cache_hits":4,"cache_misses":2,"distribute_calls":6,"nodes_online":2,"nodes_degraded":1,"nodes_offline":0,"available_cpu":3000,"nominal_cpu":3200,"rp_before":[0.5,0.75],"rp_after":[0.75,0.75],"tx_utilities":[0.5],"tx_allocations":[512],"input":{"now":0,"control_cycle":600,"nodes":[{"cpus":2,"speed":3000,"memory":4096,"state":0,"speed_factor":1}],"jobs":[{"id":1,"submit_time":0,"desired_start":0,"completion_goal":1200,"work_done":0,"status":1,"node":0,"overhead_until":0,"place_overhead":30,"migrate_overhead":60,"memory":512,"max_speed":1500,"min_speed":0,"stages":[{"work":90000,"max_speed":1500,"min_speed":0,"memory":512}]}],"tx":[{"id":2,"name":"tx","memory":256,"response_time_goal":0.5,"demand_per_request":6,"min_response_time":0.05,"saturation":0.66,"max_instances":2,"arrival_rate":100,"nodes":[0]}],"options":{"max_sweeps":2,"max_changes_per_node":8,"max_wishes_tried":8,"max_migrations_tried":3,"max_evaluations":0,"tie_tolerance":0.02,"grid":[0.5,1],"level_tolerance":1e-04,"probe_delta":0.001,"bisection_iters":48,"batch_aggregate":true},"pins":[{"app":2,"nodes":[0]}],"separations":[[1,2]]},"decision":{"placement":[[1,0,1],[2,0,1]],"allocations":[1024,512]}}
{"record":"cycle","run_id":"golden-run","cycle":1,"time":600,"avg_job_rp":null,"min_job_rp":null,"num_jobs":0,"running_jobs":0,"queued_jobs":0,"suspended_jobs":0,"batch_allocation":0,"tx_allocation":0,"cluster_utilization":0,"starts":0,"stops":0,"suspends":0,"resumes":0,"migrations":0,"failed_operations":0,"evaluations":0,"shortcut":true,"solver_seconds":0,"cache_hits":0,"cache_misses":0,"distribute_calls":0,"nodes_online":3,"nodes_degraded":0,"nodes_offline":0,"available_cpu":3200,"nominal_cpu":3200,"rp_before":[],"rp_after":[],"tx_utilities":[],"tx_allocations":[]}
)";

constexpr const char* kGoldenCsv =
    R"(# mwp-cycle-trace schema_version=2 run_id=golden-run experiment=golden seed=7 control_cycle=600 build_type=Release git_sha=deadbeef
run_id,cycle,time,avg_job_rp,min_job_rp,num_jobs,running_jobs,queued_jobs,suspended_jobs,batch_allocation,tx_allocation,cluster_utilization,starts,stops,suspends,resumes,migrations,failed_operations,evaluations,shortcut,solver_seconds,cache_hits,cache_misses,distribute_calls,nodes_online,nodes_degraded,nodes_offline,available_cpu,nominal_cpu,rp_before,rp_after,tx_utilities,tx_allocations
golden-run,0,0,0.75,0.5,2,2,0,0,1024,512,0.75,2,0,0,0,0,0,3,0,0.25,4,2,6,2,1,0,3000,3200,0.5;0.75,0.75;0.75,0.5,512
golden-run,1,600,nan,nan,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,3,0,0,3200,3200,,,,
)";

TEST(TraceExportTest, SchemaVersionIsPinned) {
  // Bumping the schema version is a deliberate act: it must come with new
  // golden strings above, new version gates in src/obs/trace_schema.h (the
  // one definition the writer and the strict reader share) and re-recorded
  // wire fingerprints. This assertion makes a silent bump fail.
  EXPECT_EQ(kTraceSchemaVersion, 2);
}

TEST(TraceExportTest, JsonlMatchesGolden) {
  std::ostringstream os;
  WriteTraceJsonl(os, GoldenContext(), GoldenTraces());
  EXPECT_EQ(os.str(), kGoldenJsonl);
}

TEST(TraceExportTest, CsvMatchesGolden) {
  std::ostringstream os;
  WriteTraceCsv(os, GoldenContext(), GoldenTraces());
  EXPECT_EQ(os.str(), kGoldenCsv);
}

TEST(TraceExportTest, FormatDoubleShortestRoundTrip) {
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(600.0), "600");
  EXPECT_EQ(FormatDouble(0.1), "0.1");  // shortest form, not 0.1000000000...
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()), "-inf");
  // Round trip is exact for an unfriendly value.
  const double v = 0.63000000000000012;
  EXPECT_EQ(std::stod(FormatDouble(v)), v);
}

TEST(TraceExportTest, MakeTraceContextStampsBuildInfo) {
  const TraceContext context = MakeTraceContext("exp", 9, 60.0);
  EXPECT_EQ(context.experiment, "exp");
  EXPECT_EQ(context.seed, 9u);
  EXPECT_DOUBLE_EQ(context.control_cycle, 60.0);
  EXPECT_EQ(context.build_type, BuildInfo::BuildType());
  EXPECT_EQ(context.git_sha, BuildInfo::GitSha());
  EXPECT_FALSE(context.build_type.empty());
  EXPECT_FALSE(context.git_sha.empty());
  // Sweep exports omit the header-level run id by default.
  EXPECT_TRUE(context.run_id.empty());
  EXPECT_EQ(MakeTraceContext("exp", 9, 60.0, "r1").run_id, "r1");
}

TEST(TraceExportTest, ExportTracePicksFormatFromExtension) {
  const std::string dir = ::testing::TempDir();
  const std::string jsonl_path = dir + "/trace_export_test.jsonl";
  const std::string csv_path = dir + "/trace_export_test.csv";
  ASSERT_TRUE(ExportTrace(jsonl_path, GoldenContext(), GoldenTraces()));
  ASSERT_TRUE(ExportTrace(csv_path, GoldenContext(), GoldenTraces()));

  std::ifstream jsonl(jsonl_path);
  std::string first_line;
  ASSERT_TRUE(std::getline(jsonl, first_line));
  EXPECT_EQ(first_line.substr(0, 19), R"({"record":"header",)");

  std::ifstream csv(csv_path);
  ASSERT_TRUE(std::getline(csv, first_line));
  EXPECT_EQ(first_line.substr(0, 17), "# mwp-cycle-trace");
}

TEST(TraceExportTest, ExportTraceFailsOnUnwritablePath) {
  EXPECT_FALSE(ExportTrace("/nonexistent-dir/trace.jsonl", GoldenContext(),
                           GoldenTraces()));
}

TEST(TraceExportTest, MetricsJsonlShape) {
  MetricsRegistry registry;
  registry.counter("c").Increment(2);
  registry.gauge("g").Set(0.5);
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_bounds = 2;
  registry.histogram("h", options).Observe(1.5);

  std::ostringstream os;
  WriteMetricsJsonl(os, registry.Snapshot());
  // The 1.5 observation lands in bucket (1, 2]; a single sample is only
  // known to lie inside its bucket, so every quantile reports the bucket's
  // upper bound rather than interpolating a fictitious interior position.
  EXPECT_EQ(os.str(),
            "{\"record\":\"counter\",\"name\":\"c\",\"value\":2}\n"
            "{\"record\":\"gauge\",\"name\":\"g\",\"value\":0.5}\n"
            "{\"record\":\"histogram\",\"name\":\"h\",\"count\":1,"
            "\"sum\":1.5,\"p50\":2,\"p95\":2,\"p99\":2,"
            "\"bounds\":[1,2],\"buckets\":[0,1,0]}\n");
}

TEST(TraceExportTest, MetricsJsonlEmptyHistogramQuantilesAreNull) {
  MetricsRegistry registry;
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_bounds = 2;
  registry.histogram("empty", options);

  std::ostringstream os;
  WriteMetricsJsonl(os, registry.Snapshot());
  EXPECT_EQ(os.str(),
            "{\"record\":\"histogram\",\"name\":\"empty\",\"count\":0,"
            "\"sum\":0,\"p50\":null,\"p95\":null,\"p99\":null,"
            "\"bounds\":[1,2],\"buckets\":[0,0,0]}\n");
}

}  // namespace
}  // namespace mwp::obs
