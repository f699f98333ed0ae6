// Metric helpers, the result line, and the correctness checks' response to a
// seeded violation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "drivers.h"
#include "report.h"

namespace perfbench {
namespace {

bool CheckPassed(const std::vector<Check>& checks, const std::string& name) {
  for (const Check& c : checks) {
    if (c.name == name) return c.ok;
  }
  ADD_FAILURE() << "no check named " << name;
  return false;
}

RunRecord RunSmoke(const char* workload, Inject inject) {
  DriverOptions options;
  options.smoke = true;
  options.inject = inject;
  std::unique_ptr<WorkloadInstance> instance =
      std::string(workload) == "storm" ? MakeStorm(options, nullptr)
                                       : MakeExp1(options, nullptr);
  Tracer tracer(/*record_spans=*/false);
  RunRecord record;
  instance->Run(tracer, record);
  instance->Finish(tracer, record);
  return record;
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(FormatNumber, ReadsBackExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 12345.678901234567, 6.02e-7}) {
    EXPECT_EQ(std::strtod(FormatNumber(v).c_str(), nullptr), v);
  }
}

TEST(ResultJson, HasTheFourKeysAndUnits) {
  const std::string json =
      ResultJson(true, 3, 0, {{"wall_s", "s", 1.5, 1}, {"n", "count", 2.0, 1}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"n\": {\"value\": "
            "2, \"unit\": \"count\"}}}");
}

TEST(SeededViolation, CleanSmokeRunsPassEveryCheck) {
  for (const char* workload : {"exp1-paper", "storm"}) {
    const RunRecord run = RunSmoke(workload, Inject::kNone);
    for (const Check& c : RunChecks(workload, run)) {
      EXPECT_TRUE(c.ok) << workload << ": " << c.name << ": " << c.detail;
    }
    EXPECT_EQ(Failed(run), 0u) << workload;
  }
}

TEST(SeededViolation, InfeasiblePlacementFailsTheCheck) {
  for (const char* workload : {"exp1-paper", "storm"}) {
    const RunRecord run = RunSmoke(workload, Inject::kInfeasible);
    EXPECT_FALSE(CheckPassed(RunChecks(workload, run), "feasible_placements"))
        << workload;
    EXPECT_GT(Failed(run), 0u) << workload;
  }
}

TEST(SeededViolation, CorruptTraceByteFailsTheReplayGate) {
  const RunRecord run = RunSmoke("storm", Inject::kTraceByte);
  const std::vector<Check> checks = RunChecks("storm", run);
  EXPECT_FALSE(CheckPassed(checks, "trace_parses") &&
               CheckPassed(checks, "replay_zero_diffs") &&
               CheckPassed(checks, "trace_rewrite_identical"));
}

}  // namespace
}  // namespace perfbench
