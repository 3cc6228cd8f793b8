#include "net/links.hpp"

#include "geom/vec2.hpp"

namespace fluxfp::net {

std::vector<Link> enumerate_links(const UnitDiskGraph& graph,
                                  double max_length) {
  std::vector<Link> links;
  for (std::size_t a = 0; a < graph.size(); ++a) {
    for (std::size_t b : graph.neighbors(a)) {
      if (b <= a) {
        continue;  // undirected edge: keep the a < b orientation only
      }
      if (max_length > 0.0 &&
          geom::distance(graph.position(a), graph.position(b)) > max_length) {
        continue;
      }
      links.push_back(Link{a, b});
    }
  }
  return links;
}

}  // namespace fluxfp::net
