#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/deployment.hpp"

namespace fluxfp::net {
namespace {

TEST(UnitDiskGraph, RejectsBadInputs) {
  EXPECT_THROW(UnitDiskGraph({}, 1.0), std::invalid_argument);
  EXPECT_THROW(UnitDiskGraph({{0, 0}}, 0.0), std::invalid_argument);
}

TEST(UnitDiskGraph, SimpleLineTopology) {
  // Three nodes in a line, radius covers only adjacent pairs.
  const UnitDiskGraph g({{0, 0}, {1, 0}, {2, 0}}, 1.1);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.neighbors(1), (std::vector<std::size_t>{0, 2}));
}

TEST(UnitDiskGraph, EdgeAtExactRadiusIncluded) {
  const UnitDiskGraph g({{0, 0}, {1, 0}}, 1.0);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(UnitDiskGraph, AdjacencyIsSymmetric) {
  geom::Rng rng(3);
  const geom::RectField f(20.0, 20.0);
  const UnitDiskGraph g(uniform_random(f, 300, rng), 2.0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (std::size_t j : g.neighbors(i)) {
      const auto& back = g.neighbors(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end())
          << i << " <-> " << j;
    }
  }
}

TEST(UnitDiskGraph, AdjacencyMatchesBruteForce) {
  geom::Rng rng(7);
  const geom::RectField f(10.0, 10.0);
  const auto pts = uniform_random(f, 120, rng);
  const double radius = 1.7;
  const UnitDiskGraph g(pts, radius);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::vector<std::size_t> expected;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i && geom::distance(pts[i], pts[j]) <= radius) {
        expected.push_back(j);
      }
    }
    EXPECT_EQ(g.neighbors(i), expected) << "node " << i;
  }
}

TEST(UnitDiskGraph, AverageDegreeMatchesPaperSetting) {
  // §5.A: 900 nodes on 30x30, radius 2.4 -> average degree about 18.
  geom::Rng rng(42);
  const geom::RectField f(30.0, 30.0);
  const UnitDiskGraph g(perturbed_grid(f, 30, 30, 0.5, rng), 2.4);
  EXPECT_NEAR(g.average_degree(), 15.0, 3.5);
}

TEST(UnitDiskGraph, NearestNode) {
  const UnitDiskGraph g({{0, 0}, {5, 5}, {10, 0}}, 3.0);
  EXPECT_EQ(g.nearest_node({0.2, 0.3}), 0u);
  EXPECT_EQ(g.nearest_node({5.0, 4.0}), 1u);
  EXPECT_EQ(g.nearest_node({9.0, 1.0}), 2u);
}

TEST(UnitDiskGraph, NearestNodeMatchesBruteForce) {
  geom::Rng rng(9);
  const geom::RectField f(20.0, 20.0);
  const auto pts = uniform_random(f, 200, rng);
  const UnitDiskGraph g(pts, 2.0);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Vec2 q = geom::uniform_in_field(f, rng);
    std::size_t best = 0;
    for (std::size_t j = 1; j < pts.size(); ++j) {
      if (geom::distance2(pts[j], q) < geom::distance2(pts[best], q)) {
        best = j;
      }
    }
    EXPECT_EQ(geom::distance(pts[g.nearest_node(q)], q),
              geom::distance(pts[best], q));
  }
}

TEST(UnitDiskGraph, NearestNodeOutsideField) {
  const UnitDiskGraph g({{0, 0}, {5, 5}}, 3.0);
  EXPECT_EQ(g.nearest_node({-10, -10}), 0u);
  EXPECT_EQ(g.nearest_node({100, 100}), 1u);
}

TEST(UnitDiskGraph, Connectivity) {
  const UnitDiskGraph connected({{0, 0}, {1, 0}, {2, 0}}, 1.1);
  EXPECT_TRUE(connected.is_connected());
  const UnitDiskGraph split({{0, 0}, {1, 0}, {9, 9}}, 1.1);
  EXPECT_FALSE(split.is_connected());
}

}  // namespace
}  // namespace fluxfp::net
