#pragma once

#include <cstddef>
#include <vector>

#include "geom/field.hpp"
#include "geom/vec2.hpp"

namespace fluxfp::net {

/// Unit-disk communication graph over a set of node positions: nodes i, j
/// are linked iff |p_i - p_j| <= radius. Neighbor lists are built with a
/// uniform grid bucket structure, O(n) expected for bounded densities.
class UnitDiskGraph {
 public:
  /// Builds the graph. Throws std::invalid_argument for radius <= 0 or an
  /// empty position set.
  UnitDiskGraph(std::vector<geom::Vec2> positions, double radius);

  std::size_t size() const { return positions_.size(); }
  double radius() const { return radius_; }
  const std::vector<geom::Vec2>& positions() const { return positions_; }
  geom::Vec2 position(std::size_t i) const { return positions_[i]; }

  /// Neighbor indices of node `i` (radius-ball, excluding `i`).
  const std::vector<std::size_t>& neighbors(std::size_t i) const {
    return adjacency_[i];
  }

  std::size_t degree(std::size_t i) const { return adjacency_[i].size(); }
  double average_degree() const;

  /// Index of the node closest to `p` (ties broken toward lower index).
  std::size_t nearest_node(geom::Vec2 p) const;

  /// True if the graph is a single connected component.
  bool is_connected() const;

 private:
  std::vector<geom::Vec2> positions_;
  double radius_;
  std::vector<std::vector<std::size_t>> adjacency_;

  // Grid-bucket index used for range queries.
  double cell_ = 0.0;
  std::size_t grid_w_ = 0;
  std::size_t grid_h_ = 0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::vector<std::vector<std::size_t>> buckets_;

  std::size_t bucket_of(geom::Vec2 p) const;
  void build_index();
  void build_adjacency();
};

}  // namespace fluxfp::net
