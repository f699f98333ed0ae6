#include "batch/arrival_process.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "common/stats.h"

namespace mwp {
namespace {

TEST(PoissonArrivalTest, TimesAreIncreasing) {
  PoissonArrivalProcess p(Rng(1), 260.0);
  Seconds prev = 0.0;
  for (int i = 0; i < 1'000; ++i) {
    const Seconds t = p.NextArrival();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(PoissonArrivalTest, MeanInterarrivalConverges) {
  PoissonArrivalProcess p(Rng(2), 260.0);
  const int n = 50'000;
  Seconds prev = 0.0;
  RunningStats gaps;
  for (int i = 0; i < n; ++i) {
    const Seconds t = p.NextArrival();
    gaps.Add(t - prev);
    prev = t;
  }
  EXPECT_NEAR(gaps.mean(), 260.0, 260.0 * 0.03);
}

TEST(PoissonArrivalTest, StartTimeOffset) {
  PoissonArrivalProcess p(Rng(3), 100.0, /*start_time=*/1'000.0);
  EXPECT_GT(p.NextArrival(), 1'000.0);
}

TEST(PoissonArrivalTest, MeanChangeMidStream) {
  PoissonArrivalProcess p(Rng(4), 50.0);
  for (int i = 0; i < 100; ++i) p.NextArrival();
  p.set_mean_interarrival(2'000.0);
  Seconds prev = p.NextArrival();
  RunningStats gaps;
  for (int i = 0; i < 2'000; ++i) {
    const Seconds t = p.NextArrival();
    gaps.Add(t - prev);
    prev = t;
  }
  EXPECT_NEAR(gaps.mean(), 2'000.0, 2'000.0 * 0.08);
}

TEST(PoissonArrivalTest, MeanChangeTakesEffectOnNextArrival) {
  // Regression: the pre-sampled pending gap used to keep the old mean, so a
  // rate shift applied one arrival late. The very first gap after the change
  // must already be distributed with the new mean — check by rescaling: with
  // the same seed and call sequence, the post-change gap must equal the
  // gap the unchanged process would have produced, scaled by new/old.
  PoissonArrivalProcess changed(Rng(7), 100.0);
  PoissonArrivalProcess unchanged(Rng(7), 100.0);
  Seconds prev_changed = 0.0;
  Seconds prev_unchanged = 0.0;
  for (int i = 0; i < 10; ++i) {
    prev_changed = changed.NextArrival();
    prev_unchanged = unchanged.NextArrival();
  }
  ASSERT_EQ(prev_changed, prev_unchanged);
  changed.set_mean_interarrival(400.0);
  const Seconds gap_changed = changed.NextArrival() - prev_changed;
  const Seconds gap_unchanged = unchanged.NextArrival() - prev_unchanged;
  EXPECT_DOUBLE_EQ(gap_changed, gap_unchanged * (400.0 / 100.0));

  // Statistical check over many post-change gaps: the mean shift is
  // immediate, not delayed by one sample.
  PoissonArrivalProcess p(Rng(8), 10.0);
  RunningStats first_gaps;
  for (int i = 0; i < 4'000; ++i) {
    const Seconds before = p.NextArrival();
    p.set_mean_interarrival(500.0);
    first_gaps.Add(p.NextArrival() - before);
    p.set_mean_interarrival(10.0);
  }
  EXPECT_NEAR(first_gaps.mean(), 500.0, 500.0 * 0.08);
}

TEST(PoissonArrivalTest, DegenerateMeanRejectedAtConstruction) {
  // Regression: the bare `mean > 0` check let +inf through (and NaN failed
  // with an unhelpful bare-check message), producing a process whose first
  // arrival is at infinity — a silent degenerate stream. All four degenerate
  // means must be rejected at the construction site with a clear error.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PoissonArrivalProcess(Rng(1), 0.0), std::logic_error);
  EXPECT_THROW(PoissonArrivalProcess(Rng(1), -260.0), std::logic_error);
  EXPECT_THROW(PoissonArrivalProcess(Rng(1), kInf), std::logic_error);
  EXPECT_THROW(PoissonArrivalProcess(Rng(1), kNaN), std::logic_error);
  try {
    PoissonArrivalProcess p(Rng(1), kInf);
    FAIL() << "infinite mean must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("finite and positive"),
              std::string::npos);
  }

  // The start time gets the same treatment.
  EXPECT_THROW(PoissonArrivalProcess(Rng(1), 260.0, -1.0), std::logic_error);
  EXPECT_THROW(PoissonArrivalProcess(Rng(1), 260.0, kInf), std::logic_error);
  EXPECT_THROW(PoissonArrivalProcess(Rng(1), 260.0, kNaN), std::logic_error);
}

TEST(PoissonArrivalTest, DegenerateMeanRejectedOnRateChange) {
  // A mid-run rate change rescales the pending gap by new/old; a degenerate
  // new mean would poison the gap (0, inf or NaN), so it is rejected and the
  // process keeps its previous state.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  PoissonArrivalProcess p(Rng(6), 100.0);
  PoissonArrivalProcess untouched(Rng(6), 100.0);
  EXPECT_THROW(p.set_mean_interarrival(0.0), std::logic_error);
  EXPECT_THROW(p.set_mean_interarrival(-5.0), std::logic_error);
  EXPECT_THROW(p.set_mean_interarrival(kInf), std::logic_error);
  EXPECT_THROW(p.set_mean_interarrival(kNaN), std::logic_error);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.NextArrival(), untouched.NextArrival());
  }
}

TEST(PoissonArrivalTest, SequencesWithoutRateChangeAreBitIdentical) {
  // The pre-sampling refactor must not perturb seeded streams: same seed,
  // same arrival instants, bit for bit (golden experiment runs rely on it).
  PoissonArrivalProcess a(Rng(42), 260.0);
  PoissonArrivalProcess b(Rng(42), 260.0);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(a.NextArrival(), b.NextArrival());
  }
}

}  // namespace
}  // namespace mwp
