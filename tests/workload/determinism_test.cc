// Determinism tests for the workload generator and scenario runner: same
// seed => byte-identical serialized event stream (and hash), different seeds
// => distinct streams, and a full scenario run reproduces its end-state
// placement fingerprint bit-for-bit. These are the properties the golden
// Alibaba trace and the replay gate stand on.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "workload/scenario.h"

namespace mwp::workload {
namespace {

ScenarioSpec SmallSpec(std::uint64_t seed = 42) {
  ScenarioSpec spec = AlibabaScenarioSpec(/*num_nodes=*/12, seed);
  spec.duration = 2'400.0;
  spec.max_jobs = 200;
  return spec;
}

TEST(WorkloadDeterminismTest, SameSeedSameSerializedStream) {
  const ScenarioWorkload a = GenerateWorkload(SmallSpec());
  const ScenarioWorkload b = GenerateWorkload(SmallSpec());
  EXPECT_EQ(SerializeWorkload(a), SerializeWorkload(b));
  EXPECT_EQ(WorkloadHash(a), WorkloadHash(b));
}

TEST(WorkloadDeterminismTest, PresetStreamHashesAsRecorded) {
  // The full 12-node preset's stream, pinned across commits: a renderer
  // change that moves one byte of SerializeWorkload moves the hash.
  const ScenarioWorkload workload =
      GenerateWorkload(AlibabaScenarioSpec(/*num_nodes=*/12, /*seed=*/42));
  const std::string text = SerializeWorkload(workload);
  std::printf("%zu jobs, %zu bytes, hash 0x%016llx\n", workload.jobs.size(),
              text.size(),
              static_cast<unsigned long long>(WorkloadHash(workload)));
  EXPECT_EQ(text.size(), 24'617u);
  EXPECT_EQ(WorkloadHash(workload), 0xf747f83f498f3918ULL);
}

TEST(WorkloadDeterminismTest, DistinctSeedsDistinctStreams) {
  std::set<std::uint64_t> hashes;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    hashes.insert(WorkloadHash(GenerateWorkload(SmallSpec(seed))));
  }
  EXPECT_EQ(hashes.size(), 8u);
}

TEST(WorkloadDeterminismTest, HashCoversEveryStream) {
  // Perturbing any single generator input must change the hash: the hash is
  // the determinism oracle, so a stream it ignored would be unguarded.
  const std::uint64_t base = WorkloadHash(GenerateWorkload(SmallSpec()));

  // Frequent flash events so episodes certainly materialize inside the short
  // horizon (the preset's 3-hour mean gap often yields none in 2400 s, which
  // would leave the stream legitimately unchanged).
  ScenarioSpec tx = SmallSpec();
  tx.tx_diurnal.bursts = {/*mean_gap=*/300.0, /*mean_duration=*/120.0,
                          /*min_duration=*/60.0, /*max_duration=*/300.0};
  EXPECT_NE(WorkloadHash(GenerateWorkload(tx)), base);

  ScenarioSpec batch = SmallSpec();
  batch.batch_arrivals.mean_interarrival *= 1.5;
  EXPECT_NE(WorkloadHash(GenerateWorkload(batch)), base);

  ScenarioSpec shape = SmallSpec();
  shape.jobs.memory.log_stddev = 0.5;
  EXPECT_NE(WorkloadHash(GenerateWorkload(shape)), base);
}

TEST(WorkloadDeterminismTest, WorkloadHashIdenticalAcrossModes) {
  const ScenarioSpec spec = SmallSpec();
  const ScenarioResult apc = RunScenario(spec, ScenarioMode::kApc);
  const ScenarioResult stat = RunScenario(spec, ScenarioMode::kStaticPartition);
  const ScenarioResult edf = RunScenario(spec, ScenarioMode::kEdf);
  EXPECT_EQ(apc.workload_hash, stat.workload_hash);
  EXPECT_EQ(apc.workload_hash, edf.workload_hash);
  EXPECT_EQ(apc.workload_hash, WorkloadHash(GenerateWorkload(spec)));
}

TEST(ScenarioDeterminismTest, ApcRunReproducesPlacementFingerprint) {
  const ScenarioSpec spec = SmallSpec();
  const ScenarioResult a = RunScenario(spec, ScenarioMode::kApc);
  const ScenarioResult b = RunScenario(spec, ScenarioMode::kApc);
  EXPECT_EQ(a.placement_fingerprint, b.placement_fingerprint);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.placement_changes, b.placement_changes);
  EXPECT_EQ(a.tx_sla_violations, b.tx_sla_violations);
  EXPECT_FALSE(a.placement_fingerprint.empty());
}

TEST(ScenarioDeterminismTest, ShardedRunReproducesPlacementFingerprint) {
  ScenarioSpec spec = SmallSpec();
  spec.shard_cell_size = 4;  // 12 nodes -> 3 cells
  const ScenarioResult a = RunScenario(spec, ScenarioMode::kApc);
  const ScenarioResult b = RunScenario(spec, ScenarioMode::kApc);
  EXPECT_EQ(a.placement_fingerprint, b.placement_fingerprint);
  EXPECT_EQ(a.placement_changes, b.placement_changes);
}

TEST(ScenarioDeterminismTest, BaselineModesReproduceFingerprints) {
  const ScenarioSpec spec = SmallSpec();
  for (const ScenarioMode mode :
       {ScenarioMode::kStaticPartition, ScenarioMode::kEdf}) {
    const ScenarioResult a = RunScenario(spec, mode);
    const ScenarioResult b = RunScenario(spec, mode);
    EXPECT_EQ(a.placement_fingerprint, b.placement_fingerprint)
        << ToString(mode);
    EXPECT_EQ(a.jobs_completed, b.jobs_completed) << ToString(mode);
  }
}

TEST(ScenarioDeterminismTest, DifferentSeedsDiverge) {
  const ScenarioResult a = RunScenario(SmallSpec(1), ScenarioMode::kApc);
  const ScenarioResult b = RunScenario(SmallSpec(2), ScenarioMode::kApc);
  EXPECT_NE(a.workload_hash, b.workload_hash);
  EXPECT_NE(a.placement_fingerprint, b.placement_fingerprint);
}

}  // namespace
}  // namespace mwp::workload
