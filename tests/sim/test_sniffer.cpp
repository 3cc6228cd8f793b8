#include "sim/sniffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/deployment.hpp"

namespace fluxfp::sim {
namespace {

TEST(Sniffer, SampleCountAndRange) {
  geom::Rng rng(1);
  const auto s = sample_nodes(100, 10, rng);
  EXPECT_EQ(s.size(), 10u);
  for (std::size_t i : s) {
    EXPECT_LT(i, 100u);
  }
}

TEST(Sniffer, SamplesAreDistinctAndSorted) {
  geom::Rng rng(2);
  const auto s = sample_nodes(50, 25, rng);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), s.size());
}

TEST(Sniffer, FullSampleIsAllNodes) {
  geom::Rng rng(3);
  const auto s = sample_nodes(8, 8, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(s[i], i);
  }
}

TEST(Sniffer, RejectsBadCounts) {
  geom::Rng rng(4);
  EXPECT_THROW(sample_nodes(5, 6, rng), std::invalid_argument);
  EXPECT_THROW(sample_nodes(5, 0, rng), std::invalid_argument);
}

TEST(Sniffer, FractionRounding) {
  geom::Rng rng(5);
  EXPECT_EQ(sample_nodes_fraction(900, 0.10, rng).size(), 90u);
  EXPECT_EQ(sample_nodes_fraction(900, 0.05, rng).size(), 45u);
  // Tiny fraction still yields at least one node.
  EXPECT_GE(sample_nodes_fraction(10, 0.01, rng).size(), 1u);
}

TEST(Sniffer, FullFractionIsAllNodes) {
  geom::Rng rng(14);
  const auto s = sample_nodes_fraction(37, 1.0, rng);
  ASSERT_EQ(s.size(), 37u);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i], i);
  }
}

TEST(Sniffer, FractionRejectsBadInputs) {
  geom::Rng rng(6);
  EXPECT_THROW(sample_nodes_fraction(10, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(sample_nodes_fraction(10, 1.5, rng), std::invalid_argument);
}

TEST(Sniffer, SamplingIsApproximatelyUniform) {
  geom::Rng rng(7);
  std::vector<int> hits(20, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::size_t i : sample_nodes(20, 5, rng)) {
      ++hits[i];
    }
  }
  // Each node expected 2000 * 5/20 = 500 hits.
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h), 500.0, 100.0);
  }
}

net::UnitDiskGraph stratified_graph(geom::Rng& rng) {
  const geom::RectField f(30.0, 30.0);
  return net::UnitDiskGraph(net::perturbed_grid(f, 20, 20, 0.5, rng), 3.0);
}

TEST(StratifiedSniffer, CountDistinctSorted) {
  geom::Rng rng(10);
  const net::UnitDiskGraph g = stratified_graph(rng);
  const auto s = sample_nodes_stratified(g, 25, rng);
  EXPECT_EQ(s.size(), 25u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), s.size());
}

TEST(StratifiedSniffer, RejectsBadCounts) {
  geom::Rng rng(11);
  const net::UnitDiskGraph g = stratified_graph(rng);
  EXPECT_THROW(sample_nodes_stratified(g, 0, rng), std::invalid_argument);
  EXPECT_THROW(sample_nodes_stratified(g, g.size() + 1, rng),
               std::invalid_argument);
}

TEST(StratifiedSniffer, FullBudgetTakesAllNodes) {
  geom::Rng rng(12);
  const net::UnitDiskGraph g = stratified_graph(rng);
  const auto s = sample_nodes_stratified(g, g.size(), rng);
  EXPECT_EQ(s.size(), g.size());
}

TEST(StratifiedSniffer, CoversTheFieldBetterThanRandomWorstCase) {
  // Max distance from any field point (on a probe grid) to its nearest
  // sniffer: stratified placement bounds it deterministically.
  geom::Rng rng(13);
  const net::UnitDiskGraph g = stratified_graph(rng);
  const std::size_t budget = 16;
  auto coverage_radius = [&](const std::vector<std::size_t>& sniffers) {
    double worst = 0.0;
    for (double x = 1.0; x < 30.0; x += 2.0) {
      for (double y = 1.0; y < 30.0; y += 2.0) {
        double best = 1e18;
        for (std::size_t s : sniffers) {
          best = std::min(best, geom::distance({x, y}, g.position(s)));
        }
        worst = std::max(worst, best);
      }
    }
    return worst;
  };
  const double strat = coverage_radius(sample_nodes_stratified(g, budget, rng));
  // Average over several random placements (any one draw could be lucky).
  double rand_acc = 0.0;
  const int reps = 8;
  for (int r = 0; r < reps; ++r) {
    rand_acc += coverage_radius(sample_nodes(g.size(), budget, rng));
  }
  EXPECT_LT(strat, rand_acc / reps);
}

}  // namespace
}  // namespace fluxfp::sim
