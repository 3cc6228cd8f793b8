#include "geom/polyline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fluxfp::geom {
namespace {

TEST(Polyline, EmptyPolyline) {
  const Polyline p;
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.length(), 0.0);
  EXPECT_THROW(p.at_arclength(0.0), std::logic_error);
  EXPECT_THROW(p.distance_to({0, 0}), std::logic_error);
}

TEST(Polyline, SinglePointIsDegenerate) {
  const Polyline p({{3, 4}});
  EXPECT_DOUBLE_EQ(p.length(), 0.0);
  EXPECT_EQ(p.at_arclength(0.0), Vec2(3, 4));
  EXPECT_EQ(p.at_arclength(5.0), Vec2(3, 4));
  EXPECT_DOUBLE_EQ(p.distance_to({0, 0}), 5.0);
}

TEST(Polyline, LengthOfSegments) {
  const Polyline p({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(p.length(), 7.0);
}

TEST(Polyline, AtArclengthInterpolates) {
  const Polyline p({{0, 0}, {10, 0}});
  EXPECT_EQ(p.at_arclength(2.5), Vec2(2.5, 0));
  EXPECT_EQ(p.at_arclength(0.0), Vec2(0, 0));
  EXPECT_EQ(p.at_arclength(10.0), Vec2(10, 0));
}

TEST(Polyline, AtArclengthClamps) {
  const Polyline p({{0, 0}, {10, 0}});
  EXPECT_EQ(p.at_arclength(-1.0), Vec2(0, 0));
  EXPECT_EQ(p.at_arclength(99.0), Vec2(10, 0));
}

TEST(Polyline, AtArclengthCrossesCorners) {
  const Polyline p({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_EQ(p.at_arclength(3.0), Vec2(3, 0));
  EXPECT_EQ(p.at_arclength(5.0), Vec2(3, 2));
}

TEST(Polyline, DistanceToSegmentInterior) {
  const Polyline p({{0, 0}, {10, 0}});
  EXPECT_DOUBLE_EQ(p.distance_to({5, 3}), 3.0);
  EXPECT_DOUBLE_EQ(p.distance_to({-4, 3}), 5.0);  // beyond the start cap
}

TEST(Polyline, DistanceToPicksNearestSegment) {
  const Polyline p({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(p.distance_to({11, 9}), 1.0);
}

TEST(Polyline, PushBackExtends) {
  Polyline p;
  p.push_back({0, 0});
  p.push_back({4, 0});
  EXPECT_DOUBLE_EQ(p.length(), 4.0);
  p.push_back({4, 3});
  EXPECT_DOUBLE_EQ(p.length(), 7.0);
  EXPECT_EQ(p.at_arclength(5.0), Vec2(4, 1));
}

TEST(Polyline, DuplicateWaypointsHandled) {
  const Polyline p({{0, 0}, {0, 0}, {2, 0}});
  EXPECT_DOUBLE_EQ(p.length(), 2.0);
  EXPECT_EQ(p.at_arclength(1.0), Vec2(1, 0));
}

}  // namespace
}  // namespace fluxfp::geom
