#include "web/workload_generator.h"

#include <gtest/gtest.h>

namespace mwp {
namespace {

TEST(ConstantRateTest, AlwaysSame) {
  ConstantRate r(1'000.0);
  EXPECT_DOUBLE_EQ(r.RateAt(0.0), 1'000.0);
  EXPECT_DOUBLE_EQ(r.RateAt(65'000.0), 1'000.0);
}

TEST(StepRateTest, RightContinuousSteps) {
  StepRate r({{0.0, 100.0}, {50.0, 400.0}, {100.0, 200.0}});
  EXPECT_DOUBLE_EQ(r.RateAt(0.0), 100.0);
  EXPECT_DOUBLE_EQ(r.RateAt(49.9), 100.0);
  EXPECT_DOUBLE_EQ(r.RateAt(50.0), 400.0);
  EXPECT_DOUBLE_EQ(r.RateAt(99.0), 400.0);
  EXPECT_DOUBLE_EQ(r.RateAt(100.0), 200.0);
  EXPECT_DOUBLE_EQ(r.RateAt(1e6), 200.0);
}

TEST(StepRateTest, BeforeFirstStepUsesFirstRate) {
  StepRate r({{10.0, 5.0}});
  EXPECT_DOUBLE_EQ(r.RateAt(0.0), 5.0);
}

TEST(StepRateTest, InvalidStepsThrow) {
  EXPECT_THROW(StepRate({{10.0, 1.0}, {10.0, 2.0}}), std::logic_error);
  EXPECT_THROW(StepRate({{0.0, -1.0}}), std::logic_error);
}

TEST(SinusoidalRateTest, OscillatesAroundBase) {
  SinusoidalRate r(100.0, 50.0, 100.0);
  EXPECT_NEAR(r.RateAt(0.0), 100.0, 1e-9);
  EXPECT_NEAR(r.RateAt(25.0), 150.0, 1e-9);  // peak at quarter period
  EXPECT_NEAR(r.RateAt(75.0), 50.0, 1e-9);   // trough
}

TEST(SinusoidalRateTest, ClampedAtZero) {
  SinusoidalRate r(10.0, 100.0, 100.0);
  EXPECT_DOUBLE_EQ(r.RateAt(75.0), 0.0);
}

}  // namespace
}  // namespace mwp
