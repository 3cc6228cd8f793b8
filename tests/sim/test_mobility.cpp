#include "sim/mobility.hpp"

#include <gtest/gtest.h>

namespace fluxfp::sim {
namespace {

TEST(StaticMobility, NeverMoves) {
  const StaticMobility m({3, 4});
  EXPECT_EQ(m.position_at(0.0), geom::Vec2(3, 4));
  EXPECT_EQ(m.position_at(100.0), geom::Vec2(3, 4));
}

TEST(PathMobility, TraversesAtSpeed) {
  const PathMobility m(geom::Polyline({{0, 0}, {10, 0}}), 2.0);
  EXPECT_EQ(m.position_at(0.0), geom::Vec2(0, 0));
  EXPECT_EQ(m.position_at(1.0), geom::Vec2(2, 0));
  EXPECT_EQ(m.position_at(5.0), geom::Vec2(10, 0));
  EXPECT_EQ(m.position_at(99.0), geom::Vec2(10, 0));  // clamps at the end
}

TEST(PathMobility, StartTimeOffset) {
  const PathMobility m(geom::Polyline({{0, 0}, {10, 0}}), 1.0, 5.0);
  EXPECT_EQ(m.position_at(2.0), geom::Vec2(0, 0));
  EXPECT_EQ(m.position_at(7.0), geom::Vec2(2, 0));
}

TEST(PathMobility, RejectsBadInputs) {
  EXPECT_THROW(PathMobility(geom::Polyline(), 1.0), std::invalid_argument);
  EXPECT_THROW(PathMobility(geom::Polyline({{0, 0}}), -1.0),
               std::invalid_argument);
}

TEST(PathMobility, RespectsMaxSpeedBetweenSamples) {
  const PathMobility m(geom::Polyline({{0, 0}, {10, 0}, {10, 10}}), 3.0);
  for (double t = 0.0; t < 8.0; t += 0.25) {
    const double moved =
        geom::distance(m.position_at(t), m.position_at(t + 0.25));
    EXPECT_LE(moved, 3.0 * 0.25 + 1e-9);
  }
}

TEST(RandomWaypointMobility, StaysInField) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(1);
  const RandomWaypointMobility m(f, 2.0, 50.0, rng);
  for (double t = 0.0; t <= 50.0; t += 0.5) {
    EXPECT_TRUE(f.contains(m.position_at(t)));
  }
}

TEST(RandomWaypointMobility, CoversRequestedDuration) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(2);
  const RandomWaypointMobility m(f, 2.0, 50.0, rng);
  EXPECT_GE(m.path().length(), 2.0 * 50.0);
}

TEST(RandomWaypointMobility, SpeedBound) {
  const geom::RectField f(30.0, 30.0);
  geom::Rng rng(3);
  const RandomWaypointMobility m(f, 2.5, 30.0, rng);
  for (double t = 0.0; t < 30.0; t += 0.1) {
    EXPECT_LE(geom::distance(m.position_at(t), m.position_at(t + 0.1)),
              2.5 * 0.1 + 1e-9);
  }
}

TEST(RandomWaypointMobility, RejectsBadSpeed) {
  const geom::RectField f(10.0, 10.0);
  geom::Rng rng(4);
  EXPECT_THROW(RandomWaypointMobility(f, 0.0, 10.0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace fluxfp::sim
