#include "numeric/stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace fluxfp::numeric {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, Stddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, MinMaxSum) {
  const std::vector<double> xs{3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
  EXPECT_DOUBLE_EQ(sum(xs), 11.0);
  EXPECT_THROW(max_value(std::vector<double>{}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.125), 1.5);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile(std::vector<double>{1.0}, 1.5),
               std::invalid_argument);
}

TEST(Stats, PercentileSmallSamples) {
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 1.0), 7.0);
  const std::vector<double> two{1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(two, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(two, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile(two, 0.99), 2.98);
  EXPECT_DOUBLE_EQ(percentile(two, 1.0), 3.0);
}

TEST(Stats, PercentileIgnoresNanWhereverItSits) {
  // NaN violates std::sort's strict weak order: before the filter the
  // result depended on where the NaNs sat in the input (these two inputs
  // disagreed). Both must rank the finite subset {1,2,3,5}.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> nan_mid{3.0, nan, 1.0, 2.0, nan, 5.0};
  const std::vector<double> nan_ends{nan, 1.0, 2.0, 3.0, 5.0, nan};
  EXPECT_DOUBLE_EQ(percentile(nan_mid, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(nan_ends, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(nan_mid, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(nan_mid, 1.0), 5.0);
}

TEST(Stats, PercentileAllNanThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(percentile(std::vector<double>{nan, nan}, 0.5),
               std::invalid_argument);
}

TEST(EmpiricalCdf, Evaluate) {
  const EmpiricalCdf cdf({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(cdf.evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.evaluate(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.evaluate(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.evaluate(10.0), 1.0);
}

TEST(EmpiricalCdf, MonotonicInValue) {
  const EmpiricalCdf cdf({0.3, 0.7, 0.1, 0.9, 0.5});
  double prev = -1.0;
  for (double v = 0.0; v <= 1.0; v += 0.05) {
    const double cur = cdf.evaluate(v);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(RunningStats, MatchesBatchStats) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  RunningStats rs;
  for (double x : xs) {
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  rs.add(3.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.min(), 3.0);
  EXPECT_DOUBLE_EQ(rs.max(), 3.0);
}

}  // namespace
}  // namespace fluxfp::numeric
