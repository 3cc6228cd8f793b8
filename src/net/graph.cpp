#include "net/graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fluxfp::net {

UnitDiskGraph::UnitDiskGraph(std::vector<geom::Vec2> positions, double radius)
    : positions_(std::move(positions)), radius_(radius) {
  if (positions_.empty()) {
    throw std::invalid_argument("UnitDiskGraph: no nodes");
  }
  if (!(radius > 0.0)) {
    throw std::invalid_argument("UnitDiskGraph: radius must be positive");
  }
  build_index();
  build_adjacency();
}

void UnitDiskGraph::build_index() {
  double max_x = positions_[0].x;
  double max_y = positions_[0].y;
  min_x_ = positions_[0].x;
  min_y_ = positions_[0].y;
  for (const auto& p : positions_) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  cell_ = radius_;
  grid_w_ = static_cast<std::size_t>((max_x - min_x_) / cell_) + 1;
  grid_h_ = static_cast<std::size_t>((max_y - min_y_) / cell_) + 1;
  buckets_.assign(grid_w_ * grid_h_, {});
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    buckets_[bucket_of(positions_[i])].push_back(i);
  }
}

std::size_t UnitDiskGraph::bucket_of(geom::Vec2 p) const {
  auto gx = static_cast<std::size_t>(
      std::clamp((p.x - min_x_) / cell_, 0.0,
                 static_cast<double>(grid_w_ - 1)));
  auto gy = static_cast<std::size_t>(
      std::clamp((p.y - min_y_) / cell_, 0.0,
                 static_cast<double>(grid_h_ - 1)));
  return gy * grid_w_ + gx;
}

void UnitDiskGraph::build_adjacency() {
  adjacency_.assign(positions_.size(), {});
  const double r2 = radius_ * radius_;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const geom::Vec2 p = positions_[i];
    const long gx = static_cast<long>((p.x - min_x_) / cell_);
    const long gy = static_cast<long>((p.y - min_y_) / cell_);
    for (long dy = -1; dy <= 1; ++dy) {
      for (long dx = -1; dx <= 1; ++dx) {
        const long nx = gx + dx;
        const long ny = gy + dy;
        if (nx < 0 || ny < 0 || nx >= static_cast<long>(grid_w_) ||
            ny >= static_cast<long>(grid_h_)) {
          continue;
        }
        for (std::size_t j :
             buckets_[static_cast<std::size_t>(ny) * grid_w_ +
                      static_cast<std::size_t>(nx)]) {
          if (j != i && geom::distance2(p, positions_[j]) <= r2) {
            adjacency_[i].push_back(j);
          }
        }
      }
    }
    std::sort(adjacency_[i].begin(), adjacency_[i].end());
  }
}

double UnitDiskGraph::average_degree() const {
  double acc = 0.0;
  for (const auto& a : adjacency_) {
    acc += static_cast<double>(a.size());
  }
  return acc / static_cast<double>(positions_.size());
}

std::size_t UnitDiskGraph::nearest_node(geom::Vec2 p) const {
  // Expanding ring search over buckets, falling back to a linear scan for
  // very distant queries.
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  const long gx = static_cast<long>(
      std::clamp((p.x - min_x_) / cell_, 0.0,
                 static_cast<double>(grid_w_ - 1)));
  const long gy = static_cast<long>(
      std::clamp((p.y - min_y_) / cell_, 0.0,
                 static_cast<double>(grid_h_ - 1)));
  const long max_ring =
      static_cast<long>(std::max(grid_w_, grid_h_));
  for (long ring = 0; ring <= max_ring; ++ring) {
    bool any = false;
    for (long dy = -ring; dy <= ring; ++dy) {
      for (long dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) {
          continue;  // only the ring boundary
        }
        const long nx = gx + dx;
        const long ny = gy + dy;
        if (nx < 0 || ny < 0 || nx >= static_cast<long>(grid_w_) ||
            ny >= static_cast<long>(grid_h_)) {
          continue;
        }
        any = true;
        for (std::size_t j :
             buckets_[static_cast<std::size_t>(ny) * grid_w_ +
                      static_cast<std::size_t>(nx)]) {
          const double d2 = geom::distance2(p, positions_[j]);
          if (d2 < best_d2 || (d2 == best_d2 && j < best)) {
            best_d2 = d2;
            best = j;
          }
        }
      }
    }
    // A hit in ring k guarantees the true nearest is within ring k+1.
    if (best_d2 < std::numeric_limits<double>::infinity() && ring >= 1 &&
        best_d2 <= static_cast<double>(ring) * cell_ *
                       static_cast<double>(ring) * cell_) {
      break;
    }
    if (!any && ring > 0 &&
        best_d2 < std::numeric_limits<double>::infinity()) {
      break;
    }
  }
  return best;
}

bool UnitDiskGraph::is_connected() const {
  std::vector<bool> seen(size(), false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const std::size_t cur = stack.back();
    stack.pop_back();
    ++visited;
    for (std::size_t nb : adjacency_[cur]) {
      if (!seen[nb]) {
        seen[nb] = true;
        stack.push_back(nb);
      }
    }
  }
  return visited == size();
}

}  // namespace fluxfp::net
