// The paper's claims, asserted at paper scale: one claim per gated row of
// EXPERIMENTS.md's Experiment One to Three tables, with the paper's value
// and the tolerance beside it. Each experiment runs at its default seed and
// at seeds 1-4 (fixed before any of them ran), one test case per
// (experiment, seed). A claim that fails at some seed is a numbered known
// deviation in EXPERIMENTS.md and is listed in kKnownDeviations; no seed is
// chosen to hide a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment1.h"
#include "exp/experiment2.h"
#include "exp/experiment3.h"

namespace mwp {
namespace {

/// A claim that fails at one seed: EXPERIMENTS.md's known deviation `number`.
/// Experiment Two's claims carry the inter-arrival time, e.g. "/150".
struct KnownDeviation {
  const char* claim;
  std::uint64_t seed;
  int number;
};

constexpr KnownDeviation kKnownDeviations[] = {
    {"exp1.dip", 4, 5},
    {"fig4.light_load/150", 2, 6},
    {"fig6.apc_equalizes", 1, 7},
    {"fig6.apc_equalizes", 3, 7},
    {"fig6.apc_equalizes", 4, 7},
    {"fig7.apc", 4, 8},
};

/// Expects `holds` unless `claim` is a known deviation at `seed`, in which
/// case it prints the measurement instead.
void Claim(const std::string& claim, std::uint64_t seed, bool holds,
           const std::string& measured) {
  for (const KnownDeviation& d : kKnownDeviations) {
    if (claim == d.claim && seed == d.seed) {
      std::printf("known deviation %d, %s at seed %llu (%s): %s\n", d.number,
                  claim.c_str(), static_cast<unsigned long long>(seed),
                  holds ? "holds this time" : "fails", measured.c_str());
      return;
    }
  }
  EXPECT_TRUE(holds) << claim << " at seed " << seed << ": " << measured;
}

template <typename... Values>
std::string Measured(const Values&... values) {
  std::ostringstream out;
  ((out << values << ' '), ...);
  return out.str();
}

/// Means of `series` over consecutive `width`-wide windows from t = 0 up to
/// `end`, as the figures print them; NaN marks a window without samples.
std::vector<double> Windows(const TimeSeries& series, Seconds end,
                            Seconds width) {
  std::vector<double> out;
  for (Seconds t = 0.0; t < end; t += width) {
    out.push_back(series.MeanInWindow(t, t + width));
  }
  return out;
}

/// Extremes over the windows that have samples (fmin and fmax skip NaN).
double Min(const std::vector<double>& v) {
  double m = std::numeric_limits<double>::infinity();
  for (const double x : v) m = std::fmin(m, x);
  return m;
}

double Max(const std::vector<double>& v) {
  double m = -std::numeric_limits<double>::infinity();
  for (const double x : v) m = std::fmax(m, x);
  return m;
}

std::string SeedName(const ::testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

// --- Experiment One (Table 2, Figure 2) ------------------------------------

class Experiment1Claims : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Experiment1Claims, Hold) {
  const std::uint64_t seed = GetParam();
  Experiment1Config cfg;
  cfg.seed = seed;
  const Experiment1Result r = RunExperiment1(cfg);
  // Figure 2's upper series in 10,000 s windows.
  const std::vector<double> hyp =
      Windows(r.hypothetical_rp, r.end_time, 10'000.0);
  double peak = -1.0;
  for (const TimeSeries::Point& p : r.hypothetical_rp.points()) {
    peak = std::max(peak, p.value);
  }

  // Paper: all 800 jobs complete. Tolerance: none.
  Claim("exp1.completed", seed, r.completed == 800u,
        Measured("completed", r.completed));
  // Paper: maximum average hypothetical RP 0.63. Tolerance: +-0.005.
  Claim("exp1.peak_rp", seed, std::abs(peak - 0.63) <= 0.005,
        Measured("peak", peak));
  // Paper: the average hypothetical RP plateaus at 0.63 and dips while jobs
  // queue. Tolerance: the lowest window at least 0.03 below 0.63.
  Claim("exp1.dip", seed, Min(hyp) <= 0.60,
        Measured("lowest window", Min(hyp)));
  // Paper: no suspends, resumes or migrations. Tolerance: none.
  Claim("exp1.no_changes", seed, r.disruptive_changes == 0,
        Measured("disruptive changes", r.disruptive_changes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Experiment1Claims,
                         ::testing::Values(42, 1, 2, 3, 4), SeedName);

// --- Experiment Two (Figures 3-5) ------------------------------------------

class Experiment2Claims : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Experiment2Claims, Hold) {
  const std::uint64_t seed = GetParam();
  Experiment2Config base;
  base.seed = seed;
  const std::vector<Experiment2Point> sweep = RunExperiment2Sweep(
      base, std::vector<Seconds>(std::begin(kExperiment2Interarrivals),
                                 std::end(kExperiment2Interarrivals)));
  const auto spread = [](const Sample& d) {
    return d.Percentile(90.0) - d.Percentile(10.0);
  };

  for (const Experiment2Point& point : sweep) {
    const Seconds ia = point.mean_interarrival;
    const double fcfs = point.at(SchedulerKind::kFcfs).deadline_satisfaction;
    const double edf = point.at(SchedulerKind::kEdf).deadline_satisfaction;
    const double apc = point.at(SchedulerKind::kApc).deadline_satisfaction;
    const int fcfs_changes =
        point.at(SchedulerKind::kFcfs).disruptive_changes;
    const int edf_changes = point.at(SchedulerKind::kEdf).disruptive_changes;
    const int apc_changes = point.at(SchedulerKind::kApc).disruptive_changes;
    const std::string at = std::string("/").append(
        std::to_string(static_cast<int>(ia)));
    const std::string met = Measured("FCFS/EDF/APC met", fcfs, edf, apc);
    const std::string changes = Measured("FCFS/EDF/APC changes", fcfs_changes,
                                         edf_changes, apc_changes);
    if (ia >= 150.0) {
      // Figure 3, paper: all three at about 100 %. Tolerance: >= 98 %.
      Claim("fig3.light_load" + at, seed, std::min({fcfs, edf, apc}) >= 0.98,
            met);
      // Figure 4, paper: 0 / ~0 / ~0 changes. Tolerance: FCFS 0, EDF and
      // APC at most 8 (1 % of the jobs).
      Claim("fig4.light_load" + at, seed,
            fcfs_changes == 0 && std::max(edf_changes, apc_changes) <= 8,
            changes);
    } else {
      // Figure 3, paper: FCFS ~50 % at 100 s and ~40 % at 50 s while EDF
      // and APC stay high (~88 and ~80 % at 50 s). Tolerance: EDF and APC
      // >= 75 %, FCFS at least 20 points below both.
      Claim("fig3.heavy_load" + at, seed,
            std::min(edf, apc) >= 0.75 && std::min(edf, apc) - fcfs >= 0.20,
            met);
      // Figure 4, paper: FCFS 0; EDF ~700 at 100 s and ~1,200 at 50 s
      // against APC's ~200. Tolerance: FCFS 0, APC at least 10x fewer than
      // EDF (an order of magnitude, as EXPERIMENTS.md states the claim).
      Claim("fig4.heavy_load" + at, seed,
            fcfs_changes == 0 && edf_changes > 0 &&
                10 * apc_changes <= edf_changes,
            changes);
    }
    if (ia == 200.0) {
      // Figure 5(a), paper: at 200 s every algorithm forms a concentrated
      // cluster per goal factor. Tolerance: in every (scheduler, factor)
      // group at least 90 % of the jobs finish early (p10 >= 0).
      double lowest_p10 = 1e300;
      for (const Experiment2Result& run : point.runs) {
        for (const double factor : {1.3, 2.5, 4.0}) {
          const Sample d =
              DistanceSample(FilterByGoalFactor(run.outcomes, factor));
          if (!d.empty()) lowest_p10 = std::min(lowest_p10, d.Percentile(10.0));
        }
      }
      Claim("fig5.ia200", seed, lowest_p10 >= 0.0,
            Measured("lowest p10", lowest_p10));
    }
    if (ia == 50.0) {
      // Figure 5(b), paper: at 50 s FCFS spreads far into lateness while APC
      // clusters tightly (tighter than EDF at factor 1.3). Tolerance, factor
      // 1.3: FCFS p10 < 0 and FCFS's p90-p10 spread over twice APC's; APC's
      // spread at most 1.25x EDF's ("comparable", known deviation 2).
      const auto sample = [&point](SchedulerKind kind) {
        return DistanceSample(
            FilterByGoalFactor(point.at(kind).outcomes, 1.3));
      };
      const Sample f = sample(SchedulerKind::kFcfs);
      const Sample e = sample(SchedulerKind::kEdf);
      const Sample a = sample(SchedulerKind::kApc);
      Claim("fig5.ia50", seed,
            f.Percentile(10.0) < 0.0 && spread(f) > 2.0 * spread(a) &&
                spread(a) <= 1.25 * spread(e),
            Measured("FCFS p10", f.Percentile(10.0), "spreads FCFS/EDF/APC",
                     spread(f), spread(e), spread(a)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Experiment2Claims,
                         ::testing::Values(7, 1, 2, 3, 4), SeedName);

// --- Experiment Three (Figures 6-7) ----------------------------------------

class Experiment3Claims : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Experiment3Claims, Hold) {
  const std::uint64_t seed = GetParam();
  Experiment3Config base;
  base.seed = seed;
  std::vector<Experiment3Result> runs;
  for (const Experiment3Mode mode : kExperiment3Modes) {
    Experiment3Config cfg = base;
    cfg.mode = mode;
    runs.push_back(RunExperiment3(cfg));
  }
  // The figures' 5,000 s windows, per configuration: APC, 9/16, 6/19.
  const auto windows = [&base](const TimeSeries& series) {
    return Windows(series, base.duration, 5'000.0);
  };
  const std::vector<double> apc_tx = windows(runs[0].tx_rp);
  const std::vector<double> apc_lr = windows(runs[0].batch_rp);
  const std::vector<double> s9_tx = windows(runs[1].tx_rp);
  const std::vector<double> s9_lr = windows(runs[1].batch_rp);
  const std::vector<double> s6_tx = windows(runs[2].tx_rp);
  const std::vector<double> apc_alloc = windows(runs[0].tx_alloc);

  // Figure 6, paper: under APC, TX starts at 0.66, dips toward LR's level
  // while jobs queue, and recovers when submissions ease. Tolerance: first
  // and last window TX >= 0.65; where LR is lowest, |TX - LR| <= 0.10.
  const std::size_t lowest = static_cast<std::size_t>(
      std::find(apc_lr.begin(), apc_lr.end(), Min(apc_lr)) - apc_lr.begin());
  ASSERT_LT(lowest, apc_lr.size()) << "no LR sample under APC";
  Claim("fig6.apc_equalizes", seed,
        apc_tx.front() >= 0.65 && apc_tx.back() >= 0.65 &&
            std::abs(apc_tx[lowest] - apc_lr[lowest]) <= 0.10,
        Measured("TX first/last", apc_tx.front(), apc_tx.back(),
                 "TX/LR at LR's lowest", apc_tx[lowest], apc_lr[lowest]));
  // Figure 6, paper: the 9/16 split pins TX at its maximum 0.66 while LR
  // struggles. Tolerance: TX within 0.66 +- 0.005 throughout; LR's lowest
  // window below APC's.
  Claim("fig6.static_9_16", seed,
        Min(s9_tx) >= 0.655 && Max(s9_tx) <= 0.665 && Min(s9_lr) < Min(apc_lr),
        Measured("TX", Min(s9_tx), Max(s9_tx), "lowest LR 9/16/APC",
                 Min(s9_lr), Min(apc_lr)));
  // Figure 6, paper: the 6/19 split keeps TX consistently below the dynamic
  // case. Tolerance: below APC's TX in every window.
  bool below = true;
  for (std::size_t i = 0; i < s6_tx.size(); ++i) {
    below = below && s6_tx[i] < apc_tx[i];
  }
  Claim("fig6.static_6_19", seed, below,
        Measured("6/19 TX max", Max(s6_tx), "APC TX min", Min(apc_tx)));
  // Figure 7, paper: APC's TX allocation starts near its 130,000 MHz
  // saturation, shrinks as LR builds and recovers at the end. Tolerance:
  // first and last window >= 98 % of it, lowest window <= 90 %.
  Claim("fig7.apc", seed,
        apc_alloc.front() >= 127'400.0 && apc_alloc.back() >= 127'400.0 &&
            Min(apc_alloc) <= 117'000.0,
        Measured("first/lowest/last", apc_alloc.front(), Min(apc_alloc),
                 apc_alloc.back()));
  // Figure 7, paper: the static splits hold TX's allocation flat, at its
  // 130,000 MHz saturation (9 nodes hold more) and at 6 nodes' 93,600 MHz.
  // Tolerance: every sample within 1 MHz.
  const auto flat_at = [](const TimeSeries& s, MHz level) {
    return std::all_of(s.points().begin(), s.points().end(),
                       [level](const TimeSeries::Point& p) {
                         return std::abs(p.value - level) <= 1.0;
                       });
  };
  Claim("fig7.static", seed,
        flat_at(runs[1].tx_alloc, 130'000.0) &&
            flat_at(runs[2].tx_alloc, 93'600.0),
        Measured("9/16 first", runs[1].tx_alloc.points().front().value,
                 "6/19 first", runs[2].tx_alloc.points().front().value));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Experiment3Claims,
                         ::testing::Values(11, 1, 2, 3, 4), SeedName);

}  // namespace
}  // namespace mwp
