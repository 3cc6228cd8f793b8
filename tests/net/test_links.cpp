// Link enumeration — the site-key layer of the RSS backend. Every
// downstream consumer (readings vectors, FluxEvent::node keys, trace
// records) indexes links by position in this list, so the order must be
// deterministic and the dedup exact.

#include "net/links.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geom/field.hpp"
#include "geom/sampling.hpp"
#include "net/deployment.hpp"

namespace fluxfp::net {
namespace {

UnitDiskGraph small_graph() {
  geom::Rng rng(7);
  const geom::RectField field(12.0, 12.0);
  return UnitDiskGraph(perturbed_grid(field, 4, 4, 0.2, rng), 4.5);
}

TEST(EnumerateLinks, DeterministicOrderAndNoDuplicates) {
  const UnitDiskGraph g = small_graph();
  const std::vector<Link> links = enumerate_links(g);
  ASSERT_FALSE(links.empty());
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_LT(links[i].a, links[i].b) << "link " << i;
    EXPECT_LT(links[i].b, g.size());
    if (i > 0) {
      // Strictly ascending (a, b) lexicographic order — also proves each
      // undirected edge appears exactly once.
      const bool ascending =
          links[i - 1].a < links[i].a ||
          (links[i - 1].a == links[i].a && links[i - 1].b < links[i].b);
      EXPECT_TRUE(ascending) << "link " << i;
    }
  }
  // Two enumerations of the same graph agree exactly.
  const std::vector<Link> again = enumerate_links(g);
  ASSERT_EQ(links.size(), again.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(links[i].a, again[i].a);
    EXPECT_EQ(links[i].b, again[i].b);
  }
}

TEST(EnumerateLinks, MaxLengthFiltersLongLinks) {
  const UnitDiskGraph g = small_graph();
  const std::vector<Link> all = enumerate_links(g);
  const double cutoff = 3.0;
  const std::vector<Link> kept = enumerate_links(g, cutoff);
  EXPECT_LT(kept.size(), all.size());
  for (const Link& l : kept) {
    EXPECT_LE(geom::distance(g.position(l.a), g.position(l.b)), cutoff);
  }
  // The filtered list is the order-preserving subsequence of the full one.
  std::size_t j = 0;
  for (const Link& l : all) {
    if (j < kept.size() && l.a == kept[j].a && l.b == kept[j].b) {
      ++j;
    }
  }
  EXPECT_EQ(j, kept.size());
}

}  // namespace
}  // namespace fluxfp::net
