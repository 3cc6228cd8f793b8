#pragma once

#include <vector>

#include "geom/sampling.hpp"
#include "net/graph.hpp"

namespace fluxfp::sim {

/// Picks `count` distinct sniffed node indices uniformly from n nodes.
/// Throws std::invalid_argument if count > n.
std::vector<std::size_t> sample_nodes(std::size_t n, std::size_t count,
                                      geom::Rng& rng);

/// Picks ceil(fraction * n) distinct node indices (fraction in (0,1]).
std::vector<std::size_t> sample_nodes_fraction(std::size_t n, double fraction,
                                               geom::Rng& rng);

/// Spatially stratified sniffer placement: the node positions' bounding
/// box is divided into ~count cells and one node is drawn per occupied
/// cell (plus random fill-up), guaranteeing field coverage that plain
/// random sampling only achieves in expectation. Matters at very sparse
/// budgets, where random placement can leave whole regions unobserved.
std::vector<std::size_t> sample_nodes_stratified(
    const net::UnitDiskGraph& graph, std::size_t count, geom::Rng& rng);

}  // namespace fluxfp::sim
