#include "trace/ap.hpp"

#include <gtest/gtest.h>

namespace fluxfp::trace {
namespace {

TEST(AccessPoints, GridCountAndIds) {
  const geom::RectField f(30.0, 30.0);
  const auto aps = grid_aps(f, 5, 10);
  ASSERT_EQ(aps.size(), 50u);
  for (std::size_t i = 0; i < aps.size(); ++i) {
    EXPECT_EQ(aps[i].id, i);
    EXPECT_TRUE(f.contains(aps[i].position));
  }
  EXPECT_EQ(aps[0].name, "AP0-0");
  EXPECT_EQ(aps[49].name, "AP4-9");
}

TEST(AccessPoints, GridInsetFromBoundary) {
  const geom::RectField f(10.0, 10.0);
  const auto aps = grid_aps(f, 2, 2);
  EXPECT_EQ(aps[0].position, geom::Vec2(2.5, 2.5));
  EXPECT_EQ(aps[3].position, geom::Vec2(7.5, 7.5));
}

TEST(AccessPoints, GridRejectsZero) {
  const geom::RectField f(10.0, 10.0);
  EXPECT_THROW(grid_aps(f, 0, 5), std::invalid_argument);
}

TEST(AccessPoints, ApNeighborsWithinRadius) {
  const geom::RectField f(10.0, 10.0);
  const auto aps = grid_aps(f, 2, 2);  // spacing 5
  const auto nb = ap_neighbors(aps, 0, 5.5);
  EXPECT_EQ(nb, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(ap_neighbors(aps, 0, 1.0).empty());
}

TEST(AccessPoints, ApNeighborsRejectsOutOfRange) {
  const geom::RectField f(10.0, 10.0);
  const auto aps = grid_aps(f, 2, 2);
  EXPECT_THROW(ap_neighbors(aps, 9, 1.0), std::out_of_range);
}

}  // namespace
}  // namespace fluxfp::trace
