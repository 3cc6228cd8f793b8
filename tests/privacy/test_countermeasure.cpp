#include "privacy/countermeasure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "net/deployment.hpp"

namespace fluxfp::privacy {
namespace {

net::UnitDiskGraph small_graph(geom::Rng& rng) {
  const geom::RectField f(30.0, 30.0);
  return net::UnitDiskGraph(net::perturbed_grid(f, 15, 15, 0.5, rng), 4.0);
}

TEST(Countermeasure, NoneLeavesFluxUntouched) {
  geom::Rng rng(1);
  const net::UnitDiskGraph g = small_graph(rng);
  net::FluxMap flux(g.size(), 3.0);
  const net::FluxMap before = flux;
  const Countermeasure cm({});
  cm.apply(flux, g, rng);
  EXPECT_EQ(flux, before);
  EXPECT_DOUBLE_EQ(cm.last_overhead(), 0.0);
}

TEST(Countermeasure, PaddingRaisesFloor) {
  geom::Rng rng(2);
  const net::UnitDiskGraph g = small_graph(rng);
  net::FluxMap flux(g.size(), 0.0);
  flux[0] = 10.0;
  CountermeasureConfig cfg;
  cfg.kind = CountermeasureKind::kConstantPadding;
  cfg.pad_level = 4.0;
  const Countermeasure cm(cfg);
  cm.apply(flux, g, rng);
  EXPECT_DOUBLE_EQ(flux[0], 10.0);  // already above the floor
  for (std::size_t i = 1; i < flux.size(); ++i) {
    EXPECT_DOUBLE_EQ(flux[i], 4.0);
  }
  EXPECT_DOUBLE_EQ(cm.last_overhead(),
                   4.0 * static_cast<double>(g.size() - 1));
}

TEST(Countermeasure, DummyTreesAddChaff) {
  geom::Rng rng(3);
  const net::UnitDiskGraph g = small_graph(rng);
  net::FluxMap flux(g.size(), 0.0);
  CountermeasureConfig cfg;
  cfg.kind = CountermeasureKind::kDummyTrees;
  cfg.dummy_count = 2;
  cfg.dummy_stretch = 1.0;
  const Countermeasure cm(cfg);
  cm.apply(flux, g, rng);
  const double total = std::accumulate(flux.begin(), flux.end(), 0.0);
  EXPECT_GT(total, 0.0);
  EXPECT_DOUBLE_EQ(cm.last_overhead(), total);
}

TEST(Countermeasure, DummyTreesZeroCountNoop) {
  geom::Rng rng(4);
  const net::UnitDiskGraph g = small_graph(rng);
  net::FluxMap flux(g.size(), 1.0);
  CountermeasureConfig cfg;
  cfg.kind = CountermeasureKind::kDummyTrees;
  cfg.dummy_count = 0;
  const Countermeasure cm(cfg);
  cm.apply(flux, g, rng);
  for (double v : flux) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(Countermeasure, JitterPreservesNonNegativityAndRoughScale) {
  geom::Rng rng(5);
  const net::UnitDiskGraph g = small_graph(rng);
  net::FluxMap flux(g.size(), 2.0);
  CountermeasureConfig cfg;
  cfg.kind = CountermeasureKind::kStretchJitter;
  cfg.jitter_sigma = 0.5;
  const Countermeasure cm(cfg);
  cm.apply(flux, g, rng);
  double mean = 0.0;
  for (double v : flux) {
    EXPECT_GE(v, 0.0);
    mean += v;
  }
  mean /= static_cast<double>(flux.size());
  EXPECT_NEAR(mean, 2.0, 0.5);  // unit-mean lognormal factor
}

TEST(Countermeasure, JitterZeroSigmaNoop) {
  geom::Rng rng(6);
  const net::UnitDiskGraph g = small_graph(rng);
  net::FluxMap flux(g.size(), 2.0);
  CountermeasureConfig cfg;
  cfg.kind = CountermeasureKind::kStretchJitter;
  cfg.jitter_sigma = 0.0;
  const Countermeasure cm(cfg);
  cm.apply(flux, g, rng);
  for (double v : flux) {
    EXPECT_DOUBLE_EQ(v, 2.0);
  }
}

TEST(Countermeasure, RejectsBadConfigs) {
  CountermeasureConfig cfg;
  cfg.kind = CountermeasureKind::kConstantPadding;
  cfg.pad_level = -1.0;
  EXPECT_THROW(Countermeasure{cfg}, std::invalid_argument);
  cfg = {};
  cfg.kind = CountermeasureKind::kStretchJitter;
  cfg.jitter_sigma = -0.1;
  EXPECT_THROW(Countermeasure{cfg}, std::invalid_argument);
}

TEST(Countermeasure, RejectsSizeMismatch) {
  geom::Rng rng(7);
  const net::UnitDiskGraph g = small_graph(rng);
  net::FluxMap flux(3, 1.0);
  const Countermeasure cm({});
  EXPECT_THROW(cm.apply(flux, g, rng), std::invalid_argument);
}

}  // namespace
}  // namespace fluxfp::privacy
