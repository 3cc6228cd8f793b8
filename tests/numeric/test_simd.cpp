// Equivalence suite for the vectorized kernels (DESIGN.md section 14).
//
// Two different contracts are pinned here:
//  * shape rows are ELEMENT-WISE over lanes — when a vector backend is
//    compiled in, every output must be bit-identical to the scalar
//    FluxModel::shape formula, at every n (remainder lanes included), at
//    d -> 0 (the d_min cap), and for sinks outside the field (clamping);
//  * dot reductions use multi-lane accumulators — the summation ORDER
//    changes, so those are tolerance-tested, never bit-compared, against
//    the serial loop.
// In the scalar build the shape kernels must decline (return false) and
// the dot kernels must reproduce the serial accumulation exactly.

#include "numeric/simd/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "core/flux_model.hpp"
#include "core/nls.hpp"
#include "geom/field.hpp"
#include "geom/sampling.hpp"

namespace fluxfp {
namespace {

namespace simd = numeric::simd;

double serial_dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

std::vector<double> random_vec(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  std::vector<double> v(n);
  for (double& x : v) {
    x = u(gen);
  }
  return v;
}

TEST(SimdKernels, BackendReportsConsistently) {
  EXPECT_GE(simd::lane_count(), 1u);
  if (simd::enabled()) {
    EXPECT_GT(simd::lane_count(), 1u);
    EXPECT_STRNE(simd::backend_name(), "scalar");
  } else {
    EXPECT_EQ(simd::lane_count(), 1u);
    EXPECT_STREQ(simd::backend_name(), "scalar");
  }
}

TEST(SimdKernels, DotMatchesSerialAccumulation) {
  // Every size from empty through several full vector groups plus every
  // possible remainder.
  for (std::size_t n = 0; n <= 67; ++n) {
    const auto a = random_vec(n, 100 + static_cast<std::uint32_t>(n));
    const auto b = random_vec(n, 200 + static_cast<std::uint32_t>(n));
    const double expected = serial_dot(a, b);
    const double got = simd::dot(a.data(), b.data(), n);
    if (simd::enabled()) {
      EXPECT_NEAR(got, expected, 1e-12 * (1.0 + std::abs(expected)))
          << "n=" << n;
    } else {
      EXPECT_EQ(got, expected) << "n=" << n;  // bit-exact in scalar mode
    }
  }
}

TEST(SimdKernels, DotSelfAndBMatchesTwoDots) {
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 31u, 64u, 65u}) {
    const auto x = random_vec(n, 300 + static_cast<std::uint32_t>(n));
    const auto b = random_vec(n, 400 + static_cast<std::uint32_t>(n));
    double self = -1.0;
    double xb = -1.0;
    simd::dot_self_and_b(x.data(), b.data(), n, &self, &xb);
    const double self_expected = serial_dot(x, x);
    const double xb_expected = serial_dot(x, b);
    if (simd::enabled()) {
      EXPECT_NEAR(self, self_expected,
                  1e-12 * (1.0 + std::abs(self_expected)));
      EXPECT_NEAR(xb, xb_expected, 1e-12 * (1.0 + std::abs(xb_expected)));
    } else {
      EXPECT_EQ(self, self_expected);
      EXPECT_EQ(xb, xb_expected);
    }
  }
}

TEST(SimdKernels, ScaleRowsIsElementwiseExact) {
  // Element-wise multiply has no reduction: exact in every backend.
  for (std::size_t n : {0u, 1u, 5u, 8u, 13u, 32u, 33u}) {
    auto out = random_vec(n, 500 + static_cast<std::uint32_t>(n));
    const auto scale = random_vec(n, 600 + static_cast<std::uint32_t>(n));
    auto expected = out;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] *= scale[i];
    }
    simd::scale_rows(out.data(), scale.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], expected[i]) << "n=" << n << " i=" << i;
    }
  }
}

/// Shared harness: evaluates model.shape_row against the scalar shape()
/// loop for every n in [1, qx.size()], asserting bit-exact agreement when
/// the kernel claims the row.
void check_shape_row(const core::FluxModel& model, geom::Vec2 sink,
                     const std::vector<double>& qx,
                     const std::vector<double>& qy) {
  for (std::size_t n = 1; n <= qx.size(); ++n) {
    std::vector<double> out(n, -1.0);
    const bool handled =
        model.shape_row(sink, qx.data(), qy.data(), n, out.data());
    if (!simd::enabled()) {
      EXPECT_FALSE(handled);
      continue;
    }
    ASSERT_TRUE(handled) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      const double expected = model.shape(sink, {qx[i], qy[i]});
      EXPECT_EQ(out[i], expected)
          << "n=" << n << " i=" << i << " q=(" << qx[i] << "," << qy[i]
          << ") sink=(" << sink.x << "," << sink.y << ")";
    }
  }
}

struct ShapeRowInputs {
  std::vector<double> qx;
  std::vector<double> qy;
};

ShapeRowInputs random_nodes(const geom::Field& field, std::size_t n,
                            std::uint64_t seed) {
  geom::Rng rng(seed);
  ShapeRowInputs in;
  for (const geom::Vec2 p : geom::uniform_points(field, n, rng)) {
    in.qx.push_back(p.x);
    in.qy.push_back(p.y);
  }
  return in;
}

TEST(SimdShapeRow, RectMatchesScalarShapeBitForBit) {
  const geom::RectField field(30.0, 20.0);
  const core::FluxModel model(field, 1.2);
  const auto in = random_nodes(field, 19, 7);  // covers remainder lanes
  check_shape_row(model, {11.0, 8.0}, in.qx, in.qy);
  check_shape_row(model, {0.0, 0.0}, in.qx, in.qy);      // corner sink
  check_shape_row(model, {30.0, 20.0}, in.qx, in.qy);    // far corner
  check_shape_row(model, {-4.0, 25.0}, in.qx, in.qy);    // outside: clamped
  check_shape_row(model, {15.0, -1e6}, in.qx, in.qy);    // far outside
  // A node a denormal step past the clamped sink's edge or corner exits at
  // once: l = 0 in every lane position, never 0 * inf = NaN.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const geom::Vec2 edge_rows[3][2] = {{{5.0, 0.0}, {6.0, -tiny}},
                                      {{0.0, 5.0}, {-tiny, 6.0}},
                                      {{0.0, 0.0}, {tiny, tiny}}};
  for (const auto& [sink, node] : edge_rows) {
    auto qx = in.qx;
    auto qy = in.qy;
    qx[0] = qx[5] = node.x;
    qy[0] = qy[5] = node.y;
    check_shape_row(model, sink, qx, qy);
  }
}

TEST(SimdShapeRow, CircleMatchesScalarShapeBitForBit) {
  const geom::CircleField field({5.0, -3.0}, 12.0);
  const core::FluxModel model(field, 0.8);
  const auto in = random_nodes(field, 19, 8);
  check_shape_row(model, {5.0, -3.0}, in.qx, in.qy);     // center
  check_shape_row(model, {16.0, -3.0}, in.qx, in.qy);    // near boundary
  check_shape_row(model, {40.0, 40.0}, in.qx, in.qy);    // outside: clamped
}

TEST(SimdShapeRow, DistanceZeroHitsTheDminCap) {
  // Node exactly at the sink: d = 0, the ray direction is degenerate, and
  // the scalar formula falls back to l = nearest_boundary_distance with
  // the d_min denominator cap. The kernel must reproduce that path bit for
  // bit in every lane position.
  const geom::RectField field(30.0, 20.0);
  const core::FluxModel model(field, 1.2);
  const geom::Vec2 sink{7.25, 4.5};
  auto in = random_nodes(field, 9, 9);
  for (std::size_t hit = 0; hit < in.qx.size(); ++hit) {
    auto qx = in.qx;
    auto qy = in.qy;
    qx[hit] = sink.x;
    qy[hit] = sink.y;
    check_shape_row(model, sink, qx, qy);
  }
}

TEST(SimdShapeRow, NonFiniteNodeMakesTheKernelDecline) {
  const geom::RectField field(30.0, 20.0);
  const core::FluxModel model(field, 1.2);
  const geom::Vec2 sink{11.0, 8.0};
  const auto clean = random_nodes(field, 11, 10);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // A bad coordinate anywhere — full lane groups and the remainder tail
    // alike — must make shape_row return false (out is then unspecified),
    // so the caller's scalar loop can throw the documented
    // invalid_argument instead of a NaN silently entering a column.
    for (std::size_t at : {std::size_t{0}, std::size_t{4}, clean.qx.size() - 1}) {
      auto qx = clean.qx;
      auto qy = clean.qy;
      qx[at] = bad;
      std::vector<double> out(qx.size(), -7.0);
      EXPECT_FALSE(model.shape_row(sink, qx.data(), qy.data(), qx.size(),
                                   out.data()));
      qx = clean.qx;
      qy[at] = bad;
      EXPECT_FALSE(model.shape_row(sink, qx.data(), qy.data(), qx.size(),
                                   out.data()));
    }
  }
  // Non-finite sink declines too.
  std::vector<double> out(clean.qx.size(), 0.0);
  EXPECT_FALSE(model.shape_row({std::nan(""), 8.0}, clean.qx.data(),
                               clean.qy.data(), clean.qx.size(), out.data()));
}

TEST(SimdShapeRow, GenericFieldKindDeclines) {
  // A field type the kernels do not recognize must always fall back.
  class BoxyField : public geom::Field {
   public:
    bool contains(geom::Vec2 p, double eps = 0.0) const override {
      return p.x >= -eps && p.x <= 10.0 + eps && p.y >= -eps &&
             p.y <= 10.0 + eps;
    }
    geom::Vec2 clamp(geom::Vec2 p) const override {
      return {std::min(std::max(p.x, 0.0), 10.0),
              std::min(std::max(p.y, 0.0), 10.0)};
    }
    double boundary_distance(geom::Vec2, geom::Vec2) const override {
      return 1.0;
    }
    double nearest_boundary_distance(geom::Vec2) const override {
      return 1.0;
    }
    geom::Vec2 center() const override { return {5.0, 5.0}; }
    double diameter() const override { return 14.142135623730951; }
    double area() const override { return 100.0; }
    geom::Vec2 from_unit_square(double u, double v) const override {
      return {10.0 * u, 10.0 * v};
    }
  };
  const BoxyField field;
  const core::FluxModel model(field, 1.0);
  EXPECT_EQ(model.field_kind(), core::FieldKind::kGeneric);
  const double qx[2] = {1.0, 2.0};
  const double qy[2] = {3.0, 4.0};
  double out[2] = {0.0, 0.0};
  EXPECT_FALSE(model.shape_row({5.0, 5.0}, qx, qy, 2, out));
}

TEST(SimdShapeRow, SparseObjectiveColumnsMatchScalarShapeLoop) {
  // End-to-end through the objective: shape_column (kernel dispatch +
  // row scaling) must equal the hand-rolled scalar loop bit for bit, in
  // every backend — the column build has no reductions.
  const geom::RectField field(30.0, 30.0);
  const core::FluxModel model(field, 1.0);
  geom::Rng rng(11);
  const std::vector<geom::Vec2> samples =
      geom::uniform_points(field, 23, rng);
  std::vector<double> measured(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    measured[i] = 1.0 + 0.01 * static_cast<double>(i);
  }
  const core::SparseObjective obj(model, samples, measured);
  const geom::Vec2 sink{13.5, 4.25};
  const std::vector<double> col = obj.shape_column(sink);
  ASSERT_EQ(col.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(col[i], model.shape(sink, samples[i])) << "i=" << i;
  }

  // Reweighted objective: same columns scaled by sqrt(w) row factors.
  std::vector<double> weights(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    weights[i] = 0.25 + 0.05 * static_cast<double>(i);
  }
  const core::SparseObjective weighted = obj.reweighted(weights);
  const std::vector<double> wcol = weighted.shape_column(sink);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(wcol[i], std::sqrt(weights[i]) * model.shape(sink, samples[i]))
        << "i=" << i;
  }
}

}  // namespace
}  // namespace fluxfp
