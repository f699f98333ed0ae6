// Concurrency stress tests — the ThreadSanitizer lane's main payload.
//
// These tests exist to put every shared-state path PR 1 and PR 2 created
// under real contention: the optimizer's chunked parallel candidate search
// (thread pool + shared column cache), concurrent column-cache hits and
// misses, the process-wide logger, and fault-repair cycles running while
// other simulations execute control cycles on sibling threads. They run in
// every lane (the assertions are meaningful without TSan), but their job is
// to give `-fsanitize=thread` something to bite on; CI's tsan lane runs
// exactly the `concurrency` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "core/evaluation_cache.h"
#include "core/placement_optimizer.h"
#include "core/sharded_optimizer.h"
#include "core/thread_pool.h"
#include "exp/experiment4.h"

namespace mwp {
namespace {

/// Loaded snapshot in the shape of the optimizer benchmark: `nodes` paper
/// nodes with three running jobs each and a queue of `queued` more, so the
/// candidate search has real work to parallelize.
struct LoadedSystem {
  ClusterSpec cluster;
  std::vector<JobProfile> profiles;
  std::vector<JobView> jobs;

  LoadedSystem(int nodes, int queued)
      : cluster(ClusterSpec::Uniform(nodes, NodeSpec{4, 3'900.0, 15'000.0})) {
    const int running = nodes * 3;
    profiles.assign(static_cast<std::size_t>(running + queued),
                    JobProfile::SingleStage(68'640'000.0, 3'900.0, 4'320.0));
    // Deterministic spread of goals/progress (no Rng: identical snapshots
    // on every platform keep the cross-thread-count comparison exact).
    for (int j = 0; j < running + queued; ++j) {
      JobView v;
      v.id = j;
      v.profile = &profiles[static_cast<std::size_t>(j)];
      v.goal = JobGoal::FromFactor(-200.0 * j, 2.7, 17'600.0);
      v.memory = 4'320.0;
      v.max_speed = 3'900.0;
      if (j < running) {
        v.work_done = 250'000.0 * j;
        v.status = JobStatus::kRunning;
        v.current_node = j / 3;
      } else {
        v.status = JobStatus::kNotStarted;
        v.place_overhead = 3.6;
      }
      jobs.push_back(v);
    }
  }

  PlacementSnapshot Snapshot() const {
    return PlacementSnapshot(&cluster, 0.0, 600.0, jobs, {});
  }
};

std::string Fingerprint(const PlacementOptimizer::Result& r) {
  std::ostringstream os;
  os << r.evaluations << '|' << r.used_shortcut << '|';
  for (Utility u : r.evaluation.score) os << u << ',';
  os << '|' << r.evaluation.changes.size();
  return os.str();
}

// The paper-faithful determinism claim of the parallel search: any lane
// count picks the winner the sequential loops would, and scores exactly the
// candidates they would score. Under TSan this is also the race detector
// for pool dispatch, per-lane scratches, and the shared column cache.
TEST(ConcurrencyStress, ParallelCandidateSearchThreadCounts) {
  const LoadedSystem sys(8, 10);
  const PlacementSnapshot snap = sys.Snapshot();

  PlacementOptimizer::Options sequential;
  sequential.search_threads = 1;
  const PlacementOptimizer::Result want =
      PlacementOptimizer(&snap, sequential).Optimize();
  ASSERT_GT(want.evaluations, 1);

  for (int threads : {2, 8, 16}) {
    SCOPED_TRACE("search_threads=" + std::to_string(threads));
    PlacementOptimizer::Options options;
    options.search_threads = threads;
    const PlacementOptimizer optimizer(&snap, options);
    EXPECT_EQ(optimizer.search_lanes(), threads);
    const PlacementOptimizer::Result got = optimizer.Optimize();
    EXPECT_EQ(got.placement, want.placement);
    EXPECT_EQ(got.evaluations, want.evaluations);
    EXPECT_EQ(Fingerprint(got), Fingerprint(want));
  }
}

// Concurrent per-cell solves of the sharded optimizer: each pool index
// builds its own SnapshotSlice and PlacementOptimizer over the shared
// global snapshot, so TSan watches the read-only snapshot fan-out plus the
// per-cell result slots. The decisions must be identical for every cell
// lane count — the sharded analogue of the candidate-search claim above.
TEST(ConcurrencyStress, ConcurrentCellSolvesThreadCounts) {
  const LoadedSystem sys(12, 12);
  const PlacementSnapshot snap = sys.Snapshot();

  ShardedPlacementOptimizer::Options sequential;
  sequential.cell_size = 3;  // 4 cells
  sequential.cell_threads = 1;
  const ShardedPlacementOptimizer::Result want =
      ShardedPlacementOptimizer(&snap, sequential).Optimize();
  ASSERT_EQ(want.num_cells, 4);
  ASSERT_TRUE(snap.IsFeasible(want.global.placement));

  for (int threads : {2, 4, 16}) {
    SCOPED_TRACE("cell_threads=" + std::to_string(threads));
    ShardedPlacementOptimizer::Options options = sequential;
    options.cell_threads = threads;
    const ShardedPlacementOptimizer optimizer(&snap, options);
    const ShardedPlacementOptimizer::Result got = optimizer.Optimize();
    EXPECT_EQ(got.global.placement, want.global.placement);
    EXPECT_EQ(got.global.evaluation.score,
              want.global.evaluation.score);
    EXPECT_EQ(got.cross_cell_transfers, want.cross_cell_transfers);
    EXPECT_EQ(Fingerprint(got.global), Fingerprint(want.global));
  }
}

// Hammers one shared HypColumnCache from many threads with overlapping key
// sets, so both the hit path (find under lock) and the miss path (compute
// outside the lock, publish under it) run concurrently. Every thread must
// observe pointer-stable, bit-identical columns, and the hit/miss counters
// must account for every Get exactly once.
TEST(ConcurrencyStress, ConcurrentColumnCacheHitsAndMisses) {
  const JobProfile profile =
      JobProfile::SingleStage(1'000'000.0, 2'000.0, 1'000.0);
  const JobGoal goal = JobGoal::FromFactor(0.0, 3.0, 500.0);
  const std::vector<double> grid = HypotheticalRpf::DefaultGrid();
  constexpr int kJobs = 4;
  constexpr int kThreads = 8;
  constexpr int kStates = 16;
  constexpr int kRounds = 200;

  HypColumnCache cache(600.0, grid, kJobs);
  std::vector<std::map<std::pair<int, int>, const HypotheticalRpf::Column*>>
      seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Interleave so early rounds collide across threads on fresh keys.
        for (int s = 0; s < kStates; ++s) {
          const int job = (s + t) % kJobs;
          HypotheticalJobState state{&profile, goal, 40'000.0 * s,
                                     (s % 3) * 10.0};
          const HypotheticalRpf::Column* col = cache.Get(job, state);
          ASSERT_NE(col, nullptr);
          auto [it, inserted] = seen[static_cast<std::size_t>(t)].try_emplace(
              {job, s}, col);
          // Columns are interned: later lookups return the first pointer.
          ASSERT_EQ(it->second, col);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Each (job, state) pair maps to one stable column shared by all threads.
  for (int t = 1; t < kThreads; ++t) {
    for (const auto& [key, col] : seen[static_cast<std::size_t>(t)]) {
      auto it = seen[0].find(key);
      if (it != seen[0].end()) {
        EXPECT_EQ(it->second, col);
      }
    }
  }
  const std::size_t total =
      static_cast<std::size_t>(kThreads) * kRounds * kStates;
  EXPECT_EQ(cache.hits() + cache.misses(), total);
  // At most one duplicate computation per colliding first touch; far fewer
  // misses than distinct keys * threads would mean the lock is broken.
  EXPECT_GE(cache.misses(), static_cast<std::size_t>(kStates));
  EXPECT_LE(cache.misses(), static_cast<std::size_t>(kStates) * kThreads);

  // Cached columns are the exact bits a fresh computation produces.
  HypotheticalJobState probe{&profile, goal, 40'000.0, 10.0};
  const HypotheticalRpf::Column fresh =
      HypotheticalRpf::ComputeColumn(probe, 600.0, grid);
  const HypotheticalRpf::Column* cached = cache.Get(1, probe);
  EXPECT_EQ(cached->w, fresh.w);
  EXPECT_EQ(cached->v, fresh.v);
}

// Repeated batches through one pool: every index runs exactly once per
// batch, results land in per-index slots, and an exception in any lane
// aborts the batch, propagates to the caller, and leaves the pool usable.
TEST(ConcurrencyStress, ThreadPoolBatchesAndExceptionRecovery) {
  ThreadPool pool(7);
  ASSERT_EQ(pool.concurrency(), 8);

  constexpr std::size_t kCount = 500;
  std::vector<int> touched(kCount, 0);
  for (int batch = 0; batch < 25; ++batch) {
    std::vector<std::uint64_t> out(kCount, 0);
    pool.ParallelFor(kCount, [&](int lane, std::size_t i) {
      ASSERT_GE(lane, 0);
      ASSERT_LT(lane, 8);
      out[i] = static_cast<std::uint64_t>(i) * i + batch;
      ++touched[i];
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * i + batch);
    }
  }
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(touched[i], 25);

  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(kCount,
                                [&](int, std::size_t i) {
                                  ran.fetch_add(1, std::memory_order_relaxed);
                                  if (i == 17) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);

  // The pool survives the aborted batch.
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(100, [&](int, std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4'950u);
}

// OnNodeFault racing control cycles: within one simulation the event queue
// serializes them (that is the designed contract), so the race TSan must
// clear is *across* simulations — several full fault-injection experiments,
// each with crashes, out-of-band repairs, periodic cycles, and a parallel
// candidate search, running simultaneously on sibling threads while all of
// them emit through the shared logger. Any hidden cross-simulation shared
// state (or a logger race) fails here; determinism of every run is the
// functional assertion.
TEST(ConcurrencyStress, FaultRepairRacingControlCyclesAcrossSimulations) {
  const LogLevel old_threshold = Log::threshold();
  std::string captured;
  Log::set_capture_for_test(&captured);
  Log::set_threshold(LogLevel::kDebug);

  const int lane_counts[] = {1, 2, 4, 8};
  constexpr int kRuns = 4;
  std::vector<Experiment4Result> results(kRuns);
  std::vector<std::thread> threads;
  threads.reserve(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    threads.emplace_back([&, r] {
      Experiment4Config config;
      config.mode = Experiment4Mode::kDynamicApc;
      config.search_threads = lane_counts[r];
      config.fault_plan = MakeExperiment4FaultPlan(config);
      results[static_cast<std::size_t>(r)] = RunExperiment4(config);
    });
  }
  for (std::thread& t : threads) t.join();

  Log::set_threshold(old_threshold);
  Log::set_capture_for_test(nullptr);

  ASSERT_FALSE(results[0].fault_trace.empty());
  EXPECT_GT(results[0].crashes, 0);
  for (int r = 1; r < kRuns; ++r) {
    SCOPED_TRACE("run=" + std::to_string(r));
    EXPECT_EQ(results[static_cast<std::size_t>(r)].fault_trace,
              results[0].fault_trace);
    EXPECT_EQ(results[static_cast<std::size_t>(r)].placement_fingerprint,
              results[0].placement_fingerprint);
    EXPECT_EQ(results[static_cast<std::size_t>(r)].jobs_completed,
              results[0].jobs_completed);
  }
}

// Whole lines from concurrent writers must come out intact: the logger's
// mutex covers formatting+emission as a unit.
TEST(ConcurrencyStress, LoggerInterleavesWholeLines) {
  const LogLevel old_threshold = Log::threshold();
  std::string captured;
  Log::set_capture_for_test(&captured);
  Log::set_threshold(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLines = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        MWP_LOG_INFO << "writer " << t << " line " << i << " payload "
                     << t * 1'000 + i;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Log::set_threshold(old_threshold);
  Log::set_capture_for_test(nullptr);

  std::istringstream in(captured);
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    ++count;
    // "[INFO ] writer T line I payload P" with P == T*1000 + I, intact.
    std::istringstream fields(line);
    std::string tag1, tag2, word;
    int t = -1, i = -1, p = -1;
    fields >> tag1 >> tag2 >> word >> t >> word >> i >> word >> p;
    ASSERT_EQ(tag1, "[INFO");
    ASSERT_EQ(p, t * 1'000 + i) << line;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

}  // namespace
}  // namespace mwp
