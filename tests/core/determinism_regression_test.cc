// Regression tests for the determinism-audit fixes (see
// tools/analysis/determinism_audit.py and docs/ALGORITHMS.md §10): the
// audited changes — const-qualifying HypColumnCache's evaluation context
// and EventInbox's ring mask, and the allowlisted timing accumulations in
// the sharded optimizer — must leave every decision bit-for-bit unchanged.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/evaluation_cache.h"
#include "core/hypothetical_rpf.h"
#include "core/sharded_optimizer.h"
#include "svc/event_inbox.h"
#include "tests/core/test_fixtures.h"

namespace mwp {
namespace {

using testing_fixtures::SnapshotBuilder;
using testing_fixtures::TinyCluster;

// The cache's t_eval/grid context is immutable after construction (audited
// as AUD-L1; both are const so Get can read them without the mutex). Cold
// and warm lookups must intern one column per key and return the exact
// doubles a fresh cache computes for the same state.
TEST(DeterminismRegression, ColumnCacheColdAndWarmBitExact) {
  const JobProfile profile =
      JobProfile::SingleStage(1'000'000.0, 2'000.0, 1'000.0);
  const JobGoal goal = JobGoal::FromFactor(0.0, 3.0, 500.0);
  const std::vector<double> grid = HypotheticalRpf::DefaultGrid();

  HypColumnCache cache(600.0, grid, 2);
  HypColumnCache fresh(600.0, grid, 2);
  for (int s = 0; s < 8; ++s) {
    const HypotheticalJobState state{&profile, goal, 40'000.0 * s,
                                     (s % 3) * 10.0};
    const HypotheticalRpf::Column* cold = cache.Get(s % 2, state);
    const HypotheticalRpf::Column* warm = cache.Get(s % 2, state);
    ASSERT_NE(cold, nullptr);
    // Interned: the warm hit is the cold pointer.
    EXPECT_EQ(cold, warm);
    // And the stored column is exactly what an independent cache computes.
    const HypotheticalRpf::Column* other = fresh.Get(s % 2, state);
    EXPECT_EQ(cold->u_max, other->u_max);
    EXPECT_EQ(cold->speed_at_max, other->speed_at_max);
    EXPECT_EQ(cold->w, other->w);
    EXPECT_EQ(cold->v, other->v);
  }
  EXPECT_EQ(cache.misses(), 8u);
  EXPECT_EQ(cache.hits(), 8u);
}

std::string Fingerprint(const PlacementOptimizer::Result& r) {
  std::ostringstream os;
  os << r.evaluations << '|';
  for (Utility u : r.evaluation.score) os << u << ',';
  os << '|' << r.evaluation.changes.size();
  return os.str();
}

TransactionalAppSpec TxSpec(AppId id) {
  TransactionalAppSpec spec;
  spec.id = id;
  spec.name = "tx-" + std::to_string(id);
  spec.memory_per_instance = 300.0;
  spec.response_time_goal = 1.0;
  spec.demand_per_request = 1.0;
  spec.min_response_time = 0.1;
  spec.saturation_allocation = 4'000.0;
  return spec;
}

// The per-cell stopwatch accumulation in solve_cell is allowlisted as
// order-fixed because each pool index writes only its own
// cell_solve_seconds slot; the decision outputs must therefore be
// identical for every lane count, with one timing slot per cell.
TEST(DeterminismRegression, ShardedDecisionsInvariantAcrossLaneCounts) {
  Rng rng(77);
  SnapshotBuilder b(TinyCluster(6));
  for (int j = 0; j < 8; ++j) {
    const bool running = j < 4;
    b.AddJob(j + 1, rng.Uniform(2'000.0, 30'000.0), rng.Uniform(200.0, 900.0),
             rng.Uniform(300.0, 700.0), 0.0, rng.Uniform(1.5, 4.0),
             running ? JobStatus::kRunning : JobStatus::kNotStarted,
             running ? static_cast<NodeId>(j % 6) : kInvalidNode);
  }
  b.AddTx(TxSpec(100), 400.0, {0});
  const PlacementSnapshot snap = b.Build();

  ShardedPlacementOptimizer::Options base;
  base.cell_size = 2;  // 6 nodes -> 3 cells
  base.cell_threads = 1;
  const ShardedPlacementOptimizer::Result want =
      ShardedPlacementOptimizer(&snap, base).Optimize();
  ASSERT_EQ(want.num_cells, 3);
  ASSERT_EQ(want.cell_solve_seconds.size(), 3u);

  for (int lanes : {2, 4}) {
    SCOPED_TRACE("cell_threads=" + std::to_string(lanes));
    ShardedPlacementOptimizer::Options options = base;
    options.cell_threads = lanes;
    const ShardedPlacementOptimizer::Result got =
        ShardedPlacementOptimizer(&snap, options).Optimize();
    EXPECT_EQ(got.global.placement, want.global.placement);
    EXPECT_EQ(got.global.evaluation.score,
              want.global.evaluation.score);
    EXPECT_EQ(Fingerprint(got.global), Fingerprint(want.global));
    // One stopwatch slot per cell regardless of lane count.
    EXPECT_EQ(got.cell_solve_seconds.size(), want.cell_solve_seconds.size());
  }
}

// The ring mask is const now (audited as AUD-L1): capacity rounding and
// FIFO order through the mask must be unchanged.
TEST(DeterminismRegression, EventInboxMaskRoundingAndFifoUnchanged) {
  EventInbox inbox(5);  // rounds up to 8
  EXPECT_EQ(inbox.capacity(), 8u);

  for (int i = 0; i < 8; ++i) {
    ControlEvent ev;
    ev.kind = ControlEventKind::kJobArrival;
    ev.job = i + 1;
    ev.time = static_cast<Seconds>(i);
    EXPECT_TRUE(inbox.TryPush(ev));
  }
  ControlEvent overflow;
  overflow.job = 99;
  EXPECT_FALSE(inbox.TryPush(overflow));  // full ring sheds, never blocks

  std::vector<ControlEvent> drained;
  EXPECT_EQ(inbox.DrainInto(drained, 64), 8u);
  ASSERT_EQ(drained.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(drained[static_cast<std::size_t>(i)].job, i + 1);
  }
  EXPECT_EQ(inbox.pushed(), 8u);
  EXPECT_EQ(inbox.dropped(), 1u);
}

}  // namespace
}  // namespace mwp
