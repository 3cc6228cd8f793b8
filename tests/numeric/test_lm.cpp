#include "numeric/lm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fluxfp::numeric {
namespace {

// Residuals for fitting y = a*exp(b*x) to exact data (a=2, b=0.5).
ResidualFn exponential_fit_problem() {
  return [](const std::vector<double>& p) {
    std::vector<double> r;
    for (int i = 0; i <= 8; ++i) {
      const double x = 0.25 * i;
      const double y = 2.0 * std::exp(0.5 * x);
      r.push_back(p[0] * std::exp(p[1] * x) - y);
    }
    return r;
  };
}

TEST(LevenbergMarquardt, FitsExponential) {
  const LmResult res = levenberg_marquardt(exponential_fit_problem(),
                                           {1.0, 0.0});
  EXPECT_NEAR(res.params[0], 2.0, 1e-5);
  EXPECT_NEAR(res.params[1], 0.5, 1e-5);
  EXPECT_LT(res.cost, 1e-10);
}

TEST(LevenbergMarquardt, SolvesLinearSystemInOneHop) {
  // r(p) = p - target: quadratic bowl.
  const ResidualFn fn = [](const std::vector<double>& p) {
    return std::vector<double>{p[0] - 3.0, p[1] + 2.0};
  };
  const LmResult res = levenberg_marquardt(fn, {0.0, 0.0});
  EXPECT_NEAR(res.params[0], 3.0, 1e-8);
  EXPECT_NEAR(res.params[1], -2.0, 1e-8);
  EXPECT_TRUE(res.converged);
}

TEST(LevenbergMarquardt, RosenbrockValley) {
  // Classic hard valley as least squares: r = (10(y - x^2), 1 - x).
  const ResidualFn fn = [](const std::vector<double>& p) {
    return std::vector<double>{10.0 * (p[1] - p[0] * p[0]), 1.0 - p[0]};
  };
  LmOptions opts;
  opts.max_iter = 300;
  const LmResult res = levenberg_marquardt(fn, {-1.2, 1.0}, opts);
  EXPECT_NEAR(res.params[0], 1.0, 1e-4);
  EXPECT_NEAR(res.params[1], 1.0, 1e-4);
}

TEST(LevenbergMarquardt, AlreadyAtOptimumConvergesImmediately) {
  const LmResult res = levenberg_marquardt(exponential_fit_problem(),
                                           {2.0, 0.5});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2);
}

TEST(LevenbergMarquardt, CostNeverIncreases) {
  const ResidualFn fn = exponential_fit_problem();
  const std::vector<double> start{0.5, 1.5};
  double prev_cost = 0.0;
  for (double r : fn(start)) {
    prev_cost += 0.5 * r * r;
  }
  const LmResult res = levenberg_marquardt(fn, start);
  EXPECT_LE(res.cost, prev_cost);
}

// The flux-model objective over a rectangular field is non-differentiable;
// this miniature version (|p| kinks) shows LM stalling away from the true
// minimum while remaining finite — the failure mode §4.A cites.
TEST(LevenbergMarquardt, NonDifferentiableObjectiveStaysFinite) {
  const ResidualFn fn = [](const std::vector<double>& p) {
    return std::vector<double>{std::abs(p[0] - 1.0) + 0.1,
                               std::abs(p[0] + 1.0) + 0.1};
  };
  const LmResult res = levenberg_marquardt(fn, {0.37});
  EXPECT_TRUE(std::isfinite(res.params[0]));
  EXPECT_TRUE(std::isfinite(res.cost));
}

class LmRandomStarts : public ::testing::TestWithParam<int> {};

TEST_P(LmRandomStarts, ExponentialFitFromVariedStarts) {
  const double a0 = 0.5 + 0.25 * GetParam();
  const double b0 = -0.2 + 0.1 * GetParam();
  LmOptions opts;
  opts.max_iter = 200;
  const LmResult res =
      levenberg_marquardt(exponential_fit_problem(), {a0, b0}, opts);
  EXPECT_NEAR(res.params[0], 2.0, 1e-3);
  EXPECT_NEAR(res.params[1], 0.5, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Starts, LmRandomStarts, ::testing::Range(0, 8));

}  // namespace
}  // namespace fluxfp::numeric
