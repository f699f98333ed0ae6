// Microbenchmark: per-cycle runtime of the placement optimizer (§5.1).
//
// The paper reports ~1.5 s per cycle for Experiment One's system (25 nodes,
// up to 75 running jobs plus queue) on a 3.2 GHz Xeon of 2008, and notes
// that cycles where every job fits take "internal shortcuts" and run much
// faster. This benchmark reproduces both claims across system sizes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>

#include "batch/job_factory.h"
#include "batch/job_queue.h"
#include "common/rng.h"
#include "core/apc_controller.h"
#include "core/placement_optimizer.h"
#include "core/sharded_optimizer.h"
#include "exp/experiment1.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "svc/controller_service.h"
#include "svc/event_adapters.h"
#include "web/workload_generator.h"

namespace mwp {
namespace {

/// Snapshot with `running` placed jobs (3 per node) and `queued` waiting,
/// in the shape of Experiment One.
struct BenchState {
  ClusterSpec cluster;
  std::vector<JobProfile> profiles;
  std::vector<JobView> jobs;

  BenchState(int nodes, int running, int queued)
      : cluster(ClusterSpec::Uniform(nodes, PaperNode())) {
    Rng rng(1234);
    profiles.reserve(static_cast<std::size_t>(running + queued));
    for (int j = 0; j < running + queued; ++j) {
      profiles.push_back(JobProfile::SingleStage(68'640'000.0, 3'900.0,
                                                 4'320.0));
    }
    for (int j = 0; j < running; ++j) {
      JobView v;
      v.id = j;
      v.profile = &profiles[static_cast<std::size_t>(j)];
      v.goal = JobGoal::FromFactor(rng.Uniform(-40'000.0, 0.0), 2.7, 17'600.0);
      v.work_done = rng.Uniform(0.0, 60'000'000.0);
      v.status = JobStatus::kRunning;
      v.current_node = j / 3;  // three per node, as memory allows
      v.memory = 4'320.0;
      v.max_speed = 3'900.0;
      jobs.push_back(v);
    }
    for (int j = running; j < running + queued; ++j) {
      JobView v;
      v.id = j;
      v.profile = &profiles[static_cast<std::size_t>(j)];
      v.goal = JobGoal::FromFactor(rng.Uniform(-10'000.0, 0.0), 2.7, 17'600.0);
      v.status = JobStatus::kNotStarted;
      v.place_overhead = 3.6;
      v.memory = 4'320.0;
      v.max_speed = 3'900.0;
      jobs.push_back(v);
    }
  }

  PlacementSnapshot Snapshot() const {
    return PlacementSnapshot(&cluster, 0.0, 600.0, jobs, {});
  }
};

void BM_OptimizeLoaded(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int running = nodes * 3;
  const int queued = static_cast<int>(state.range(1));
  BenchState bench(nodes, running, queued);
  const PlacementSnapshot snap = bench.Snapshot();
  int evaluations = 0;
  for (auto _ : state) {
    PlacementOptimizer optimizer(&snap);
    auto result = optimizer.Optimize();
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result.placement);
  }
  state.counters["nodes"] = nodes;
  state.counters["jobs"] = running + queued;
  state.counters["evaluations"] = evaluations;
}
BENCHMARK(BM_OptimizeLoaded)
    ->Args({5, 5})
    ->Args({10, 10})
    ->Args({25, 10})     // Experiment One at typical queueing
    ->Args({25, 50})     // deep queue
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeLoadedObjective(benchmark::State& state) {
  // BM_OptimizeLoaded under each pluggable fairness objective — range(2) is
  // the wire id (0 maxmin, 1 karma, 2 pf). The karma run carries a spread
  // credit ledger so the biased comparisons and the biased wish-list order
  // are actually exercised; maxmin here must cost the same as
  // BM_OptimizeLoaded at equal {nodes, queued} (the default path is the
  // identical code).
  const int nodes = static_cast<int>(state.range(0));
  const int running = nodes * 3;
  const int queued = static_cast<int>(state.range(1));
  const int kind = static_cast<int>(state.range(2));
  BenchState bench(nodes, running, queued);
  PlacementSnapshot snap = bench.Snapshot();
  PlacementOptimizer::Options options;
  options.evaluator.objective.kind = static_cast<FairnessObjectiveKind>(kind);
  if (options.evaluator.objective.kind == FairnessObjectiveKind::kKarma) {
    Rng rng(99);
    std::vector<double> credits(static_cast<std::size_t>(snap.num_entities()));
    for (double& c : credits) c = rng.Uniform(0.0, 8.0);
    snap.set_fairness_credits(std::move(credits));
  }
  int evaluations = 0;
  for (auto _ : state) {
    PlacementOptimizer optimizer(&snap, options);
    auto result = optimizer.Optimize();
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result.placement);
  }
  state.counters["nodes"] = nodes;
  state.counters["jobs"] = running + queued;
  state.counters["objective"] = kind;
  state.counters["evaluations"] = evaluations;
}
BENCHMARK(BM_OptimizeLoadedObjective)
    ->Args({25, 10, 0})
    ->Args({25, 10, 1})
    ->Args({25, 10, 2})
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeSharded(benchmark::State& state) {
  // The cell-decomposed solver (§ docs/ALGORITHMS.md §13) on the same
  // workload shape: nodes are partitioned into cells of range(2) nodes,
  // each cell solved independently, then the bounded cross-cell rebalancer
  // runs. Compare against BM_OptimizeLoaded at equal {nodes, queued}.
  const int nodes = static_cast<int>(state.range(0));
  const int running = nodes * 3;
  const int queued = static_cast<int>(state.range(1));
  const int cell_size = static_cast<int>(state.range(2));
  BenchState bench(nodes, running, queued);
  const PlacementSnapshot snap = bench.Snapshot();
  ShardedPlacementOptimizer::Options options;
  options.cell_size = cell_size;
  int evaluations = 0;
  int cells = 0;
  int transfers = 0;
  for (auto _ : state) {
    const ShardedPlacementOptimizer optimizer(&snap, options);
    auto result = optimizer.Optimize();
    evaluations = result.global.evaluations;
    cells = result.num_cells;
    transfers = result.cross_cell_transfers;
    benchmark::DoNotOptimize(result.global.placement);
  }
  state.counters["nodes"] = nodes;
  state.counters["jobs"] = running + queued;
  state.counters["cells"] = cells;
  state.counters["evaluations"] = evaluations;
  state.counters["cross_cell_transfers"] = transfers;
}
BENCHMARK(BM_OptimizeSharded)
    ->Args({25, 10, 25})    // one cell: bit-exact with BM_OptimizeLoaded/25/10
    ->Args({100, 50, 25})   // 4 cells
    ->Unit(benchmark::kMillisecond);

// --- scale study (excluded from the CI smoke run via -Scale filter) -------
//
// The numbers behind the near-linear-scaling claim in BENCH_apc_runtime.json:
// the monolithic solver at 100/500 nodes against the sharded solver at
// 100/500/1000. Monolithic runs are pinned to one iteration because a single
// 500-node solve already takes long enough to time stably — and long enough
// that letting the benchmark library pick an iteration count would make
// recording painful.

void BM_OptimizeMonolithicScale(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int running = nodes * 3;
  const int queued = static_cast<int>(state.range(1));
  BenchState bench(nodes, running, queued);
  const PlacementSnapshot snap = bench.Snapshot();
  int evaluations = 0;
  for (auto _ : state) {
    PlacementOptimizer optimizer(&snap);
    auto result = optimizer.Optimize();
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result.placement);
  }
  state.counters["nodes"] = nodes;
  state.counters["jobs"] = running + queued;
  state.counters["evaluations"] = evaluations;
}
BENCHMARK(BM_OptimizeMonolithicScale)
    ->Args({100, 50})
    ->Args({500, 200})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeShardedScale(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int running = nodes * 3;
  const int queued = static_cast<int>(state.range(1));
  const int cell_size = static_cast<int>(state.range(2));
  BenchState bench(nodes, running, queued);
  const PlacementSnapshot snap = bench.Snapshot();
  ShardedPlacementOptimizer::Options options;
  options.cell_size = cell_size;
  int evaluations = 0;
  int cells = 0;
  for (auto _ : state) {
    const ShardedPlacementOptimizer optimizer(&snap, options);
    auto result = optimizer.Optimize();
    evaluations = result.global.evaluations;
    cells = result.num_cells;
    benchmark::DoNotOptimize(result.global.placement);
  }
  state.counters["nodes"] = nodes;
  state.counters["jobs"] = running + queued;
  state.counters["cells"] = cells;
  state.counters["evaluations"] = evaluations;
}
BENCHMARK(BM_OptimizeShardedScale)
    ->Args({100, 50, 25})
    ->Args({500, 200, 25})
    ->Args({1000, 400, 32})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeLoadedReference(benchmark::State& state) {
  // The same search with the incremental engine off (fresh hypothetical-RPF
  // per evaluation, sequential candidate loop) — the baseline the cached
  // path is property-tested against, kept here to measure the speedup.
  const int nodes = static_cast<int>(state.range(0));
  const int running = nodes * 3;
  const int queued = static_cast<int>(state.range(1));
  BenchState bench(nodes, running, queued);
  const PlacementSnapshot snap = bench.Snapshot();
  PlacementOptimizer::Options options;
  options.evaluator.incremental = false;
  options.search_threads = 1;
  int evaluations = 0;
  for (auto _ : state) {
    PlacementOptimizer optimizer(&snap, options);
    auto result = optimizer.Optimize();
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result.placement);
  }
  state.counters["nodes"] = nodes;
  state.counters["jobs"] = running + queued;
  state.counters["evaluations"] = evaluations;
}
BENCHMARK(BM_OptimizeLoadedReference)
    ->Args({25, 10})
    ->Args({25, 50})
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeShortcut(benchmark::State& state) {
  // Every job placed, nothing queued: the paper's fast path.
  const int nodes = static_cast<int>(state.range(0));
  BenchState bench(nodes, nodes * 3, 0);
  const PlacementSnapshot snap = bench.Snapshot();
  for (auto _ : state) {
    PlacementOptimizer optimizer(&snap);
    auto result = optimizer.Optimize();
    benchmark::DoNotOptimize(result.used_shortcut);
  }
  state.counters["nodes"] = nodes;
}
BENCHMARK(BM_OptimizeShortcut)->Arg(5)->Arg(25)->Arg(100)->Unit(
    benchmark::kMillisecond);

void BM_LoadDistributor(benchmark::State& state) {
  // What a search pays per candidate: one scratch cycles through the
  // incumbent and a fixed set of its one-change neighbours (each node's
  // first job removed, then the next node's first job moved into that
  // slot), so the per-node decomposition memo serves only what a candidate
  // leaves unchanged. Re-distributing one placement would hit it on every
  // node after the first call.
  const int nodes = static_cast<int>(state.range(0));
  BenchState bench(nodes, nodes * 3, 0);
  const PlacementSnapshot snap = bench.Snapshot();
  const LoadDistributor distributor(&snap);
  std::vector<PlacementMatrix> candidates = {snap.current_placement()};
  for (int n = 0; n < nodes; ++n) {
    const int next = (n + 1) % nodes;
    PlacementMatrix p = snap.current_placement();
    p.at(snap.EntityOfJob(3 * n), n) = 0;
    candidates.push_back(p);
    p.at(snap.EntityOfJob(3 * next), next) = 0;
    p.at(snap.EntityOfJob(3 * next), n) = 1;
    candidates.push_back(p);
  }
  DistributorScratch scratch;
  std::size_t k = 0;
  for (auto _ : state) {
    auto result = distributor.Distribute(candidates[k], scratch);
    benchmark::DoNotOptimize(result.totals);
    k = (k + 1) % candidates.size();
  }
  const DistributorScratch::Stats& stats = scratch.stats();
  state.counters["entities"] = nodes * 3;
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["node_memo_reuse"] =
      static_cast<double>(stats.decomposition_reuses) /
      static_cast<double>(std::max<std::uint64_t>(stats.decompositions, 1));
}
BENCHMARK(BM_LoadDistributor)->Arg(5)->Arg(25)->Arg(50)->Unit(
    benchmark::kMillisecond);

void BM_RepairCycle(benchmark::State& state) {
  // Out-of-band repair latency: a loaded system (checkpointed jobs plus a
  // spread transactional app) loses a node; measured is OnNodeFault alone —
  // checkpoint rollback, displaced-instance restart and the bounded
  // re-dispatch, NOT a full optimizer cycle. The fault path must stay far
  // cheaper than BM_OptimizeLoaded at the same scale or running it at the
  // crash instant defeats its purpose.
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ClusterSpec cluster = ClusterSpec::Uniform(nodes, PaperNode());
    JobQueue queue;
    Simulation sim;
    ApcController::Config cfg;
    cfg.control_cycle = 600.0;
    cfg.costs = VmCostModel::Free();
    ApcController controller(&cluster, &queue, cfg);

    TransactionalAppSpec web;
    web.id = 1;
    web.name = "tx";
    web.memory_per_instance = 1'024.0;
    web.response_time_goal = 1.0;
    web.demand_per_request = 1.0;
    web.min_response_time = 0.1;
    web.saturation_allocation = nodes * 6'000.0;
    controller.AddTransactionalApp(
        web, std::make_shared<ConstantRate>(nodes * 2'000.0));

    for (int j = 0; j < nodes * 2; ++j) {
      JobProfile p =
          JobProfile::SingleStage(68'640'000.0, 3'900.0, 4'320.0);
      Job& job = queue.Submit(std::make_unique<Job>(
          100 + j, "job-" + std::to_string(j), p,
          JobGoal::FromFactor(0.0, 2.7, p.min_execution_time())));
      job.set_checkpoint_interval(60.0);
    }
    controller.Attach(sim, 0.0);  // cycle at t=0 places the system
    sim.RunUntil(100.0);
    cluster.SetNodeOffline(0);
    state.ResumeTiming();

    controller.OnNodeFault(sim);
    benchmark::DoNotOptimize(controller.repairs().size());
  }
  state.counters["nodes"] = nodes;
}
BENCHMARK(BM_RepairCycle)->Arg(5)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_EventStorm(benchmark::State& state) {
  // The event-driven controller service (src/svc) under storm: a placed
  // system takes range(1) events per iteration — mostly job arrivals
  // (quick-dispatch path) with periodic fault/restore episodes (repair and
  // event-triggered full cycles) and occasional timer ticks. Every event is
  // published into the inbox and pumped, so the measured time is the full
  // event-to-decision path. `events_per_second` is the sustained decision
  // throughput (the README's >= 1000/s claim); the p50/p99 counters read
  // the service's own svc.event_to_decision_seconds histogram, accumulated
  // across all iterations.
  const int nodes = static_cast<int>(state.range(0));
  const int events = static_cast<int>(state.range(1));
  obs::MetricsRegistry metrics;
  std::int64_t total_events = 0;
  std::uint64_t quick = 0;
  std::uint64_t repairs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t shed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ClusterSpec cluster = ClusterSpec::Uniform(nodes, PaperNode());
    JobQueue queue;
    Simulation sim;
    ApcController::Config cfg;
    cfg.control_cycle = 600.0;
    cfg.costs = VmCostModel::Free();
    ApcController controller(&cluster, &queue, cfg);
    ControllerService::Config svc_cfg;
    svc_cfg.metrics = &metrics;
    ControllerService service(&controller, svc_cfg);
    // Short jobs (10 s at full speed) and half a simulated second between
    // events keep the system in steady state: arrivals drain through
    // completions instead of piling up an ever-deeper queue, as in a real
    // storm hitting a live service.
    auto factory = std::make_unique<IdenticalJobFactory>(
        JobProfile::SingleStage(39'000.0, 3'900.0, 4'320.0),
        /*relative_goal_factor=*/2.7, /*first_id=*/1000);
    for (int j = 0; j < nodes * 3; ++j) queue.Submit(factory->Create(0.0));
    ControlEvent seed_tick;
    seed_tick.kind = ControlEventKind::kTimerTick;
    service.Publish(seed_tick);
    service.Pump(sim);  // seed cycle places the initial jobs
    state.ResumeTiming();

    for (int i = 0; i < events; ++i) {
      if (i % 128 == 64) {
        cluster.SetNodeOffline(1);
        PublishNodeFault(service, sim, 1);
      } else if (i % 128 == 80) {
        cluster.SetNodeOnline(1);
        PublishNodeRestore(service, sim, 1);
      } else if (i % 256 == 255) {
        ControlEvent tick;
        tick.kind = ControlEventKind::kTimerTick;
        service.Publish(tick);
        service.Pump(sim);
      } else {
        Job& job = queue.Submit(factory->Create(sim.now()));
        PublishJobArrival(service, sim, job.id());
      }
      sim.RunUntil(sim.now() + 0.5);
    }
    total_events += events;
    quick = service.counters().quick_dispatches;
    repairs = service.counters().repairs;
    cycles = service.counters().full_cycles;
    shed = service.inbox().dropped();
  }
  state.counters["nodes"] = nodes;
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(total_events), benchmark::Counter::kIsRate);
  const obs::Histogram& latency =
      metrics.histogram("svc.event_to_decision_seconds");
  state.counters["latency_p50_us"] = latency.Quantile(0.50) * 1e6;
  state.counters["latency_p99_us"] = latency.Quantile(0.99) * 1e6;
  state.counters["quick_dispatches"] = static_cast<double>(quick);
  state.counters["repairs"] = static_cast<double>(repairs);
  state.counters["full_cycles"] = static_cast<double>(cycles);
  state.counters["events_shed"] = static_cast<double>(shed);
}
BENCHMARK(BM_EventStorm)
    ->Args({10, 1024})
    ->Args({25, 1024})
    ->Unit(benchmark::kMillisecond);

void BM_QuickDispatchHistory(benchmark::State& state) {
  // Between-cycle dispatch against a long history: 25 paper nodes running
  // 60 jobs, four waiting jobs too big for any node, and range(0) jobs
  // that completed earlier. Each iteration times one QuickDispatchAt at a
  // fixed instant: the jobs do not advance and nothing fits, so every
  // iteration sees the same state. Its cost should depend on the live jobs
  // and nodes only, not on how many jobs the queue has ever held.
  const int completed = static_cast<int>(state.range(0));
  constexpr int kNodes = 25;
  constexpr int kRunning = 60;
  constexpr int kWaiting = 4;
  constexpr Seconds kNow = 100.0;
  ClusterSpec cluster = ClusterSpec::Uniform(kNodes, PaperNode());
  JobQueue queue;
  ApcController::Config cfg;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);
  IdenticalJobFactory finished_jobs(
      JobProfile::SingleStage(39'000.0, 3'900.0, 4'320.0),
      /*relative_goal_factor=*/2.7, /*first_id=*/1'000);
  for (int j = 0; j < completed; ++j) {
    Job& job = queue.Submit(finished_jobs.Create(0.0));
    job.Place(static_cast<NodeId>(j % kNodes), 0.0, 0.0);
    job.SetAllocation(3'900.0);
    job.AdvanceTo(0.0, kNow);
  }
  IdenticalJobFactory long_jobs(
      JobProfile::SingleStage(68'640'000.0, 3'900.0, 4'320.0),
      /*relative_goal_factor=*/2.7, /*first_id=*/100'000);
  for (int j = 0; j < kRunning; ++j) {
    Job& job = queue.Submit(long_jobs.Create(0.0));
    job.Place(static_cast<NodeId>(j % kNodes), 0.0, 0.0);
    job.SetAllocation(3'900.0);
  }
  IdenticalJobFactory oversized_jobs(
      JobProfile::SingleStage(68'640'000.0, 3'900.0, 20'000.0),
      /*relative_goal_factor=*/2.7, /*first_id=*/200'000);
  for (int j = 0; j < kWaiting; ++j) queue.Submit(oversized_jobs.Create(0.0));
  // The first call advances the running jobs to kNow; it must place nothing.
  if (controller.QuickDispatchAt(kNow) != 0) {
    state.SkipWithError("a waiting job fit a node");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.QuickDispatchAt(kNow));
  }
  state.counters["history_jobs"] = static_cast<double>(queue.size());
  state.counters["live_jobs"] = static_cast<double>(queue.Incomplete().size());
}
BENCHMARK(BM_QuickDispatchHistory)
    ->Arg(0)
    ->Arg(2'000)
    ->Arg(20'000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mwp

// Custom main instead of BENCHMARK_MAIN(): numbers recorded from anything
// but a Release build are meaningless as baselines (BENCH_apc_runtime.json
// was once recorded from a debug build), so refuse to run unless this is a
// Release build or the caller passes --allow-nonrelease. Either way the
// build type and git revision are stamped into the benchmark context so a
// recorded JSON self-identifies.
int main(int argc, char** argv) {
  using mwp::obs::BuildInfo;
  bool allow_nonrelease = false;
  int out = 1;  // strip our flag so benchmark::Initialize never sees it
  for (int in = 1; in < argc; ++in) {
    if (std::strcmp(argv[in], "--allow-nonrelease") == 0) {
      allow_nonrelease = true;
    } else {
      argv[out++] = argv[in];
    }
  }
  argc = out;

  if (!BuildInfo::IsRelease()) {
    if (!allow_nonrelease) {
      std::cerr << "bench_apc_runtime: refusing to run from a '"
                << BuildInfo::BuildType()
                << "' build — benchmark numbers from non-Release builds are "
                   "not comparable.\nRebuild with "
                   "-DCMAKE_BUILD_TYPE=Release, or pass --allow-nonrelease "
                   "to run anyway (tagged in the output context).\n";
      return 1;
    }
    std::cerr << "bench_apc_runtime: WARNING — running from a '"
              << BuildInfo::BuildType()
              << "' build; do not record these numbers as a baseline.\n";
  }
  benchmark::AddCustomContext("mwp_build_type", BuildInfo::BuildType());
  benchmark::AddCustomContext("mwp_git_sha", BuildInfo::GitSha());
  benchmark::AddCustomContext("mwp_asserts_enabled",
                              BuildInfo::AssertsEnabled() ? "true" : "false");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
