#include "core/flux_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fluxfp::core {
namespace {

TEST(FluxModel, RejectsBadDmin) {
  const geom::RectField f(30.0, 30.0);
  EXPECT_THROW(FluxModel(f, 0.0), std::invalid_argument);
  EXPECT_THROW(FluxModel(f, -1.0), std::invalid_argument);
}

TEST(FluxModel, MatchesClosedFormOnAxis) {
  // Sink at the center of a 30x30 field, node at (20,15): d = 5, the ray
  // exits at x = 30 so l = 15. shape = (l^2 - d^2)/(2d) = 200/10 = 20.
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.0);
  EXPECT_DOUBLE_EQ(m.shape({15, 15}, {20, 15}), 20.0);
}

TEST(FluxModel, ZeroAtBoundaryAlongRay) {
  // Node on the boundary in the ray direction: l = d, shape = 0.
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.0);
  EXPECT_DOUBLE_EQ(m.shape({15, 15}, {30, 15}), 0.0);
}

TEST(FluxModel, ClampsNearSink) {
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 2.0);
  // d = 1 < d_min = 2: denominator uses d_min.
  const double d = 1.0;
  const double l = 15.0;  // ray from center through (16,15) exits at x=30
  EXPECT_DOUBLE_EQ(m.shape({15, 15}, {16, 15}),
                   (l * l - d * d) / (2.0 * 2.0));
}

TEST(FluxModel, FiniteCapAtTheSinkItself) {
  // d -> 0 is the model's singularity; the d_min clamp must cap it at
  // l^2 / (2 d_min) — here l = 15 (center of a 30x30 field), d_min = 1.2,
  // cap = 93.75 — with a continuous approach from d = epsilon.
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.2);
  const double cap = 15.0 * 15.0 / (2.0 * 1.2);
  EXPECT_DOUBLE_EQ(m.shape({15, 15}, {15, 15}), cap);
  const double eps = 1e-12;
  const double near = m.shape({15, 15}, {15 + eps, 15});
  EXPECT_TRUE(std::isfinite(near));
  EXPECT_NEAR(near, cap, 1e-6);
}

TEST(FluxModel, RejectsNonFinitePositions) {
  // A NaN coordinate used to flow straight through into a NaN shape value,
  // which SparseObjective would fold into every fit without complaint.
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(m.shape({nan, 15}, {20, 15}), std::invalid_argument);
  EXPECT_THROW(m.shape({15, 15}, {20, nan}), std::invalid_argument);
  EXPECT_THROW(m.shape({inf, 15}, {20, 15}), std::invalid_argument);
  EXPECT_THROW(m.shape({15, 15}, {inf, 15}), std::invalid_argument);
}

TEST(FluxModel, DegenerateNodeAtSink) {
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.5);
  // l falls back to the nearest-edge distance (15), d = 0 clamped to 1.5.
  EXPECT_DOUBLE_EQ(m.shape({15, 15}, {15, 15}),
                   (15.0 * 15.0) / (2.0 * 1.5));
}

TEST(FluxModel, NonNegativeEverywhere) {
  const geom::RectField f(30.0, 20.0);
  const FluxModel m(f, 1.0);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> ux(0.0, 30.0);
  std::uniform_real_distribution<double> uy(0.0, 20.0);
  for (int i = 0; i < 500; ++i) {
    const geom::Vec2 sink{ux(rng), uy(rng)};
    const geom::Vec2 node{ux(rng), uy(rng)};
    EXPECT_GE(m.shape(sink, node), 0.0);
  }
}

TEST(FluxModel, SinkSlightlyOutsideFieldIsClamped) {
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.0);
  const double inside = m.shape({0.0, 15.0}, {10, 15});
  const double outside = m.shape({-1e-9, 15.0}, {10, 15});
  EXPECT_NEAR(inside, outside, 1e-6);
}

TEST(FluxModel, RectShapeMatchesSlabExitGeometry) {
  // The rect shape computes l^2 from the first slab the ray p -> q crosses
  // (one root, two divisions). Reference: the plain geometric composition
  // d = |sink - node|, l = boundary_distance_through(clamp(sink), node).
  const geom::RectField f(30.0, 20.0);
  const double d_min = 1.0;
  const FluxModel m(f, d_min);
  const auto reference = [&](geom::Vec2 sink, geom::Vec2 node) {
    const double d = geom::distance(sink, node);
    const double l = f.boundary_distance_through(f.clamp(sink), node);
    return std::max(l * l - d * d, 0.0) / (2.0 * std::max(d, d_min));
  };

  std::mt19937_64 rng(16);
  std::uniform_real_distribution<double> ux(0.0, 30.0);
  std::uniform_real_distribution<double> uy(0.0, 20.0);
  std::uniform_real_distribution<double> out_x(-40.0, 70.0);
  std::uniform_real_distribution<double> out_y(-40.0, 60.0);
  const std::vector<geom::Vec2> corners{{0, 0}, {30, 0}, {0, 20}, {30, 20}};
  // Points on each edge: random along it, plus the corners themselves.
  const auto edge_points = [&](int per_edge) {
    std::vector<geom::Vec2> pts = corners;
    for (int i = 0; i < per_edge; ++i) {
      pts.push_back({ux(rng), 0.0});
      pts.push_back({ux(rng), 20.0});
      pts.push_back({0.0, uy(rng)});
      pts.push_back({30.0, uy(rng)});
    }
    return pts;
  };

  std::vector<geom::Vec2> sinks = edge_points(10);  // 44 on the boundary
  for (int i = 0; i < 80; ++i) {
    sinks.push_back({ux(rng), uy(rng)});
  }
  for (int i = 0; i < 40; ++i) {
    geom::Vec2 s{out_x(rng), out_y(rng)};
    if (f.contains(s)) {
      s.x += 50.0;
    }
    sinks.push_back(s);
  }
  sinks.push_back({15.0, -1e6});
  std::vector<geom::Vec2> nodes = edge_points(25);  // 104 on the boundary
  for (int i = 0; i < 520; ++i) {
    nodes.push_back({ux(rng), uy(rng)});
  }

  const double tiny = std::numeric_limits<double>::denorm_min();
  // Nodes a denormal step outside an edge or corner of the clamped sink:
  // the exit is immediate, so l = 0 and the shape is exactly 0.
  const std::vector<std::pair<geom::Vec2, geom::Vec2>> zero_rows{
      {{5.0, 0.0}, {6.0, -tiny}},
      {{0.0, 5.0}, {-tiny, 6.0}},
      {{0.0, 0.0}, {tiny, tiny}}};
  for (const auto& [sink, node] : zero_rows) {
    EXPECT_EQ(m.shape(sink, node), 0.0)
        << "sink=" << sink << " node=" << node;
    EXPECT_EQ(reference(sink, node), 0.0);
  }

  std::size_t pairs = 0;
  const auto check = [&](geom::Vec2 sink, geom::Vec2 node) {
    const double ref = reference(sink, node);
    const double got = m.shape(sink, node);
    ++pairs;
    if (!(std::abs(got - ref) <= 1e-12 * std::max(1.0, std::abs(ref)))) {
      ADD_FAILURE() << "sink=" << sink << " node=" << node << " got=" << got
                    << " ref=" << ref;
    }
  };
  for (const geom::Vec2 sink : sinks) {
    check(sink, f.clamp(sink));
    for (const geom::Vec2 node : nodes) {
      check(sink, node);
    }
  }
  EXPECT_GE(pairs, 100000u);
}

// Property: along a fixed ray, the shape decreases with distance (traffic
// thins toward the boundary) once beyond the clamp.
class ShapeMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(ShapeMonotonicity, DecreasesAlongRay) {
  std::mt19937_64 rng(static_cast<unsigned long>(GetParam()));
  const geom::RectField f(30.0, 30.0);
  const FluxModel m(f, 1.0);
  std::uniform_real_distribution<double> u(5.0, 25.0);
  const geom::Vec2 sink{u(rng), u(rng)};
  std::uniform_real_distribution<double> angle(0.0, 6.28318);
  const double a = angle(rng);
  const geom::Vec2 dir{std::cos(a), std::sin(a)};
  const double l = f.boundary_distance(sink, dir);
  double prev = 1e18;
  for (double d = 1.0; d < l; d += 0.5) {
    const double cur = m.shape(sink, sink + dir * d);
    EXPECT_LT(cur, prev + 1e-9) << "d=" << d;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeMonotonicity, ::testing::Range(0, 20));

}  // namespace
}  // namespace fluxfp::core
