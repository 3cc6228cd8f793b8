#include "eval/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace fluxfp::eval {
namespace {

using geom::Vec2;

TEST(Metrics, SingleTargetDistance) {
  const std::vector<Vec2> est{{0, 0}};
  const std::vector<Vec2> truth{{3, 4}};
  EXPECT_DOUBLE_EQ(matched_mean_error(est, truth), 5.0);
  EXPECT_DOUBLE_EQ(matched_max_error(est, truth), 5.0);
}

TEST(Metrics, RejectsBadSizes) {
  const std::vector<Vec2> a{{0, 0}};
  const std::vector<Vec2> b{{1, 1}, {2, 2}};
  EXPECT_THROW(matched_mean_error(a, b), std::invalid_argument);
  EXPECT_THROW(matched_mean_error({}, {}), std::invalid_argument);
}

TEST(Metrics, IdentityFreeMatching) {
  // Estimates listed in swapped order must still score zero error.
  const std::vector<Vec2> est{{10, 10}, {0, 0}};
  const std::vector<Vec2> truth{{0, 0}, {10, 10}};
  EXPECT_DOUBLE_EQ(matched_mean_error(est, truth), 0.0);
}

TEST(Metrics, MatchingIsOptimal) {
  // Greedy nearest-first would pair est0->truth0 (cost 1) then est1->truth1
  // (cost 9); optimal crossing pairing costs 4+4.
  const std::vector<Vec2> est{{1, 0}, {11, 0}};
  const std::vector<Vec2> truth{{0, 0}, {20, 0}};
  const auto errors = matched_errors(est, truth);
  EXPECT_DOUBLE_EQ(errors[0] + errors[1], 10.0);
}

TEST(Metrics, MatchedErrorsAlignedWithEstimates) {
  const std::vector<Vec2> est{{0, 0}, {10, 0}};
  const std::vector<Vec2> truth{{10, 1}, {0, 1}};
  const auto errors = matched_errors(est, truth);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_DOUBLE_EQ(errors[0], 1.0);
  EXPECT_DOUBLE_EQ(errors[1], 1.0);
}

TEST(Metrics, MatchAssignmentIsPermutation) {
  const std::vector<Vec2> est{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<Vec2> truth{{5, 6}, {1, 2}, {3, 4}};
  auto assign = match_estimates(est, truth);
  std::sort(assign.begin(), assign.end());
  EXPECT_EQ(assign, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace fluxfp::eval
