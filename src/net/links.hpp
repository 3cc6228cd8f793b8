#pragma once

#include <cstddef>
#include <vector>

#include "net/graph.hpp"

namespace fluxfp::net {

/// One communication link of the unit-disk graph, endpoints as node
/// indices with a < b (each undirected edge appears exactly once).
struct Link {
  std::size_t a = 0;
  std::size_t b = 0;
};

/// All links of the graph in deterministic order: ascending by a, then by
/// b — the order neighbors(a) enumerates, filtered to b > a. Link i's
/// index is the stable site key the RSS pipeline uses everywhere
/// (readings, FluxEvent::node, checkpoint validation). `max_length` > 0
/// keeps only links no longer than that (RSS hardware measures reliably
/// on short links); 0 keeps all.
std::vector<Link> enumerate_links(const UnitDiskGraph& graph,
                                  double max_length = 0.0);

}  // namespace fluxfp::net
