// The benchmark's drivers must make exactly the decisions of the library
// harness each one replaces: on a scaled-down instance, the CycleTrace JSONL
// of the driver equals the harness's with the wall-clock fields masked.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "drivers.h"
#include "exp/experiment1.h"
#include "obs/trace_export.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using mwp::obs::CycleTrace;

/// JSONL of `traces` with the wall-clock fields (solver_seconds,
/// cell_solver_seconds) zeroed. The library harnesses search on
/// hardware_concurrency() lanes, and speculative candidates scored on extra
/// lanes move the column-cache and Distribute activity counters without
/// changing a decision, so those counters are zeroed too; `evaluations`
/// counts only the sequential order's candidates and stays compared.
std::string MaskedJsonl(std::vector<CycleTrace> traces) {
  for (CycleTrace& t : traces) {
    t.solver_seconds = 0.0;
    for (double& s : t.cell_solver_seconds) s = 0.0;
    t.cache_hits = 0;
    t.cache_misses = 0;
    t.distribute_calls = 0;
  }
  std::ostringstream os;
  mwp::obs::WriteTraceJsonl(
      os, mwp::obs::MakeTraceContext("equivalence", 0, 0.0), traces);
  return os.str();
}

using Factory = std::unique_ptr<WorkloadInstance> (*)(const DriverOptions&,
                                                      mwp::obs::TraceRecorder*);

std::vector<CycleTrace> RunDriver(Factory make, const DriverOptions& options,
                                  RunRecord& record) {
  mwp::obs::TraceRecorder recorder;
  std::unique_ptr<WorkloadInstance> instance = make(options, &recorder);
  Tracer tracer(/*record_spans=*/false);
  instance->Run(tracer, record);
  instance->Finish(tracer, record);
  return recorder.Traces();
}

DriverOptions Smoke(std::uint64_t seed) {
  DriverOptions options;
  options.smoke = true;
  options.seed = seed;
  options.run_id = "equivalence";
  return options;
}

std::size_t SearchCycles(const std::vector<CycleTrace>& traces) {
  std::size_t n = 0;
  for (const CycleTrace& t : traces) n += t.shortcut ? 0 : 1;
  return n;
}

TEST(DriverEquivalence, Exp1MatchesRunExperiment1) {
  const DriverOptions options = Smoke(7);
  mwp::obs::TraceRecorder library;
  mwp::Experiment1Config config;
  config.num_nodes = 5;
  config.num_jobs = 40;
  config.seed = options.seed;
  config.trace = &library;
  config.trace_run_id = options.run_id;
  mwp::RunExperiment1(config);

  RunRecord record;
  const std::vector<CycleTrace> driver = RunDriver(&MakeExp1, options, record);
  ASSERT_GT(SearchCycles(driver), 2u);
  EXPECT_EQ(record.dispatches.size(), 40u);
  EXPECT_EQ(MaskedJsonl(driver), MaskedJsonl(library.Traces()));
}

TEST(DriverEquivalence, AlibabaMatchesRunScenario) {
  const DriverOptions options = Smoke(11);
  mwp::workload::ScenarioSpec spec = AlibabaBenchSpec(options);
  mwp::obs::TraceRecorder library;
  spec.trace = &library;
  spec.trace_run_id = options.run_id;
  const mwp::workload::ScenarioResult result =
      mwp::workload::RunScenario(spec, mwp::workload::ScenarioMode::kApc);

  RunRecord record;
  const std::vector<CycleTrace> driver =
      RunDriver(&MakeAlibaba, options, record);
  ASSERT_GT(SearchCycles(driver), 2u);
  EXPECT_EQ(record.workload_hash, result.workload_hash);
  EXPECT_EQ(record.outcomes.tx_samples, result.tx_samples);
  EXPECT_EQ(record.outcomes.tx_missed, result.tx_sla_violations);
  EXPECT_EQ(record.outcomes.completed, result.jobs_completed);
  EXPECT_EQ(MaskedJsonl(driver), MaskedJsonl(library.Traces()));
}

TEST(DriverEquivalence, StormMatchesLibraryEventAdapters) {
  const DriverOptions options = Smoke(5);
  mwp::obs::TraceRecorder library;
  {
    std::unique_ptr<WorkloadInstance> reference =
        MakeStormReference(options, &library);
    Tracer tracer(/*record_spans=*/false);
    RunRecord record;
    reference->Run(tracer, record);
  }
  RunRecord record;
  const std::vector<CycleTrace> driver = RunDriver(&MakeStorm, options, record);
  EXPECT_GT(record.service.quick, 0u);
  EXPECT_GT(record.service.repairs, 0u);
  EXPECT_GT(record.service.full_cycles, 0u);
  EXPECT_EQ(MaskedJsonl(driver), MaskedJsonl(library.Traces()));
}

}  // namespace
}  // namespace perfbench
