// The ObservationModel seam: FluxModel's adapter must be a zero-cost
// rename of its legacy entry points, the two new backends must honor the
// same contract (finite non-negative shapes, throw on non-finite
// positions, row form bit-identical to the scalar form), and every
// likelihood denominator must be guarded against the r -> 0 degeneracies
// (the discrete-flux satellite audit).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/flux_model.hpp"
#include "core/nls.hpp"
#include "core/observation_model.hpp"
#include "core/passive_trace_model.hpp"
#include "core/rss_link_model.hpp"
#include "geom/field.hpp"
#include "geom/sampling.hpp"
#include "numeric/simd/kernels.hpp"

namespace fluxfp::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ModelId, NamesAndKnownIds) {
  EXPECT_STREQ(model_name(ModelId::kFlux), "flux");
  EXPECT_STREQ(model_name(ModelId::kRssLink), "rss-link");
  EXPECT_STREQ(model_name(ModelId::kPassiveTrace), "passive-trace");
  EXPECT_TRUE(known_model_id(0));
  EXPECT_TRUE(known_model_id(1));
  EXPECT_TRUE(known_model_id(2));
  EXPECT_FALSE(known_model_id(3));
  EXPECT_FALSE(known_model_id(255));
}

// -------------------------------------------------------------------------
// FluxModel through the interface: the adapter must be a pure rename.
// -------------------------------------------------------------------------

TEST(FluxModelAdapter, SiteShapeEqualsLegacyShape) {
  const geom::RectField field(30.0, 30.0);
  const FluxModel model(field, 1.2);
  EXPECT_EQ(model.id(), ModelId::kFlux);
  EXPECT_FALSE(model.sites_are_links());
  geom::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const geom::Vec2 sink = geom::uniform_in_field(field, rng);
    const geom::Vec2 node = geom::uniform_in_field(field, rng);
    // Bit-exact: site_shape must forward, not recompute differently.
    EXPECT_EQ(model.site_shape(sink, point_site(node)),
              model.shape(sink, node));
  }
}

TEST(FluxModelAdapter, SiteShapeRowForwardsToLegacyRow) {
  const geom::RectField field(30.0, 30.0);
  const FluxModel model(field, 1.2);
  geom::Rng rng(12);
  const std::size_t n = 37;  // odd: exercises the scalar tail
  std::vector<double> qx(n), qy(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 q = geom::uniform_in_field(field, rng);
    qx[i] = q.x;
    qy[i] = q.y;
  }
  const geom::Vec2 sink = geom::uniform_in_field(field, rng);
  const SiteRows rows{qx.data(), qy.data(), qx.data(), qy.data()};
  std::vector<double> via_iface(n, -1.0), via_legacy(n, -1.0);
  const bool ok_iface = model.site_shape_row(sink, rows, n, via_iface.data());
  const bool ok_legacy =
      model.shape_row(sink, qx.data(), qy.data(), n, via_legacy.data());
  ASSERT_EQ(ok_iface, ok_legacy);
  if (ok_iface) {
    EXPECT_EQ(via_iface, via_legacy);
  }
}

TEST(FluxModelAdapter, CloneIsIndependentAndEquivalent) {
  const geom::RectField field(30.0, 30.0);
  const FluxModel model(field, 1.2);
  const auto copy = model.clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->id(), ModelId::kFlux);
  EXPECT_EQ(copy->site_shape({4.0, 5.0}, point_site({9.0, 9.0})),
            model.site_shape({4.0, 5.0}, point_site({9.0, 9.0})));
}

// -------------------------------------------------------------------------
// Denominator guards of the RSS-link and passive models: the analogues of
// the flux model's d_min clamp.
// -------------------------------------------------------------------------

TEST(RssLinkModel, ConstructorGuardsDenominators) {
  // lambda and min_link_length both sit in denominators; zero, negative,
  // and non-finite values must be refused at construction.
  EXPECT_THROW(RssLinkModel(0.0, 0.05), std::invalid_argument);
  EXPECT_THROW(RssLinkModel(-1.0, 0.05), std::invalid_argument);
  EXPECT_THROW(RssLinkModel(kNan, 0.05), std::invalid_argument);
  EXPECT_THROW(RssLinkModel(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(RssLinkModel(1.0, -0.05), std::invalid_argument);
  EXPECT_THROW(RssLinkModel(1.0, kInf), std::invalid_argument);
  EXPECT_NO_THROW(RssLinkModel(1.0, 0.05));
}

TEST(RssLinkModel, ZeroLengthLinkStaysFinite) {
  // A degenerate link (both sniffers at one point) drives |ab| to zero;
  // the min_link clamp must keep the 1/sqrt(|ab|) denominator finite.
  const RssLinkModel model(1.0, 0.04);
  const Site degenerate{{5.0, 5.0}, {5.0, 5.0}};
  const double v = model.site_shape({5.0, 6.0}, degenerate);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GE(v, 0.0);
  // Against the hand formula: excess = 2*d(sink,a), gate = max(1-2d, 0),
  // denominator = sqrt(min_link).
  EXPECT_EQ(v, std::max(1.0 - 2.0 * 1.0, 0.0) / std::sqrt(0.04));
}

TEST(RssLinkModel, EllipseGateAndScaling) {
  const RssLinkModel model(2.0, 0.05);
  EXPECT_EQ(model.id(), ModelId::kRssLink);
  EXPECT_TRUE(model.sites_are_links());
  const Site link{{0.0, 0.0}, {4.0, 0.0}};
  // On the link segment: excess 0, gate 1, value 1/sqrt(4).
  EXPECT_DOUBLE_EQ(model.site_shape({2.0, 0.0}, link), 0.5);
  // Far off the link: the ellipse gate clamps to exactly zero.
  EXPECT_EQ(model.site_shape({2.0, 50.0}, link), 0.0);
  // In between the value decays monotonically with the detour excess.
  const double near = model.site_shape({2.0, 0.5}, link);
  const double far = model.site_shape({2.0, 1.5}, link);
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
}

TEST(RssLinkModel, ThrowsOnNonFinitePositions) {
  const RssLinkModel model(1.0, 0.05);
  const Site link{{0.0, 0.0}, {4.0, 0.0}};
  EXPECT_THROW(model.site_shape({kNan, 0.0}, link), std::invalid_argument);
  EXPECT_THROW(model.site_shape({1.0, 1.0}, Site{{kInf, 0.0}, {4.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(model.site_shape({1.0, 1.0}, Site{{0.0, 0.0}, {4.0, kNan}}),
               std::invalid_argument);
}

TEST(PassiveTraceModel, ConstructorGuardsRadius) {
  EXPECT_THROW(PassiveTraceModel{0.0}, std::invalid_argument);
  EXPECT_THROW(PassiveTraceModel{-2.0}, std::invalid_argument);
  EXPECT_THROW(PassiveTraceModel{kNan}, std::invalid_argument);
  EXPECT_THROW(PassiveTraceModel{kInf}, std::invalid_argument);
  EXPECT_NO_THROW(PassiveTraceModel{1e-9});  // tiny-but-positive is legal
}

TEST(PassiveTraceModel, QuadraticFalloff) {
  const PassiveTraceModel model(4.0);
  EXPECT_EQ(model.id(), ModelId::kPassiveTrace);
  EXPECT_FALSE(model.sites_are_links());
  const Site node = point_site({10.0, 10.0});
  // Co-located: detection probability shape is exactly 1.
  EXPECT_EQ(model.site_shape({10.0, 10.0}, node), 1.0);
  // At half the radius: 1 - 1/4.
  EXPECT_DOUBLE_EQ(model.site_shape({12.0, 10.0}, node), 0.75);
  // At and beyond the radius: exactly zero, never negative.
  EXPECT_EQ(model.site_shape({14.0, 10.0}, node), 0.0);
  EXPECT_EQ(model.site_shape({24.0, 10.0}, node), 0.0);
}

TEST(PassiveTraceModel, ThrowsOnNonFinitePositions) {
  const PassiveTraceModel model(4.0);
  EXPECT_THROW(model.site_shape({kNan, 0.0}, point_site({1.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(model.site_shape({1.0, 1.0}, point_site({kInf, 1.0})),
               std::invalid_argument);
}

// -------------------------------------------------------------------------
// Scalar vs SIMD parity for the new row kernels: whenever the row form
// reports success, its output must be BIT-identical to the scalar form.
// -------------------------------------------------------------------------

struct SiteArrays {
  std::vector<double> ax, ay, bx, by;
  std::vector<Site> sites;
};

SiteArrays random_sites(std::size_t n, bool links, std::uint64_t seed) {
  const geom::RectField field(30.0, 30.0);
  geom::Rng rng(seed);
  SiteArrays s;
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 a = geom::uniform_in_field(field, rng);
    const geom::Vec2 b = links ? geom::uniform_in_field(field, rng) : a;
    s.ax.push_back(a.x);
    s.ay.push_back(a.y);
    s.bx.push_back(b.x);
    s.by.push_back(b.y);
    s.sites.push_back(Site{a, b});
  }
  return s;
}

void expect_row_matches_scalar(const ObservationModel& model,
                               const SiteArrays& s, std::uint64_t seed) {
  const geom::RectField field(30.0, 30.0);
  geom::Rng rng(seed);
  const SiteRows rows{s.ax.data(), s.ay.data(), s.bx.data(), s.by.data()};
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Vec2 sink = geom::uniform_in_field(field, rng);
    std::vector<double> row(s.sites.size(), -1.0);
    const bool ok = model.site_shape_row(sink, rows, s.sites.size(),
                                         row.data());
    EXPECT_EQ(ok, numeric::simd::enabled());
    if (!ok) {
      continue;
    }
    for (std::size_t i = 0; i < s.sites.size(); ++i) {
      ASSERT_EQ(row[i], model.site_shape(sink, s.sites[i]))
          << "site " << i << " sink (" << sink.x << ", " << sink.y << ")";
    }
  }
}

TEST(RowParity, RssLinkRowBitIdenticalToScalar) {
  const RssLinkModel model(1.0, 0.05);
  // 53 sites: 6 full vector lanes of 8 plus a 5-wide scalar tail.
  expect_row_matches_scalar(model, random_sites(53, true, 21), 22);
}

TEST(RowParity, PassiveTraceRowBitIdenticalToScalar) {
  const PassiveTraceModel model(4.0);
  expect_row_matches_scalar(model, random_sites(53, false, 23), 24);
}

TEST(RowParity, RowFormRefusesNonFiniteSiteCoordinates) {
  if (!numeric::simd::enabled()) {
    GTEST_SKIP() << "row kernels disabled in this build";
  }
  SiteArrays s = random_sites(16, true, 25);
  s.ay[9] = kNan;  // poison inside a full vector lane group
  const RssLinkModel model(1.0, 0.05);
  const SiteRows rows{s.ax.data(), s.ay.data(), s.bx.data(), s.by.data()};
  std::vector<double> row(16, -1.0);
  EXPECT_FALSE(model.site_shape_row({5.0, 5.0}, rows, 16, row.data()));

  SiteArrays p = random_sites(11, false, 26);
  p.ax[10] = kInf;  // poison in the scalar tail
  const PassiveTraceModel passive(4.0);
  const SiteRows prow{p.ax.data(), p.ay.data(), p.bx.data(), p.by.data()};
  std::vector<double> out(11, -1.0);
  EXPECT_FALSE(passive.site_shape_row({5.0, 5.0}, prow, 11, out.data()));
}

// -------------------------------------------------------------------------
// The objective consumes any backend: link sites flow end to end.
// -------------------------------------------------------------------------

TEST(ObjectiveOverModels, LinkSitesRoundTripThroughShapeColumn) {
  const RssLinkModel model(1.0, 0.05);
  const SiteArrays s = random_sites(24, true, 31);
  std::vector<double> measured(24, 1.0);
  const SparseObjective obj(model, s.sites, measured);
  ASSERT_EQ(obj.sample_count(), 24u);
  for (std::size_t i = 0; i < 24; ++i) {
    const Site site = obj.site(i);
    EXPECT_EQ(site.a, s.sites[i].a);
    EXPECT_EQ(site.b, s.sites[i].b);
  }
  std::vector<double> col;
  const geom::Vec2 sink{14.0, 17.0};
  obj.shape_column(sink, col);
  ASSERT_EQ(col.size(), 24u);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(col[i], model.site_shape(sink, s.sites[i]));
  }
}

}  // namespace
}  // namespace fluxfp::core
