#include "sim/sniffer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace fluxfp::sim {

std::vector<std::size_t> sample_nodes(std::size_t n, std::size_t count,
                                      geom::Rng& rng) {
  if (count > n || count == 0) {
    throw std::invalid_argument("sample_nodes: bad count");
  }
  // Partial Fisher–Yates.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, n - 1);
    std::swap(idx[i], idx[pick(rng)]);
  }
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::vector<std::size_t> sample_nodes_fraction(std::size_t n, double fraction,
                                               geom::Rng& rng) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    throw std::invalid_argument("sample_nodes_fraction: bad fraction");
  }
  const auto count = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(n)));
  return sample_nodes(n, std::max<std::size_t>(count, 1), rng);
}

std::vector<std::size_t> sample_nodes_stratified(
    const net::UnitDiskGraph& graph, std::size_t count, geom::Rng& rng) {
  const std::size_t n = graph.size();
  if (count > n || count == 0) {
    throw std::invalid_argument("sample_nodes_stratified: bad count");
  }
  // Bounding box of the deployment.
  double min_x = graph.position(0).x, max_x = min_x;
  double min_y = graph.position(0).y, max_y = min_y;
  for (std::size_t i = 0; i < n; ++i) {
    min_x = std::min(min_x, graph.position(i).x);
    max_x = std::max(max_x, graph.position(i).x);
    min_y = std::min(min_y, graph.position(i).y);
    max_y = std::max(max_y, graph.position(i).y);
  }
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count))));
  const double cw = (max_x - min_x) / static_cast<double>(side) + 1e-9;
  const double ch = (max_y - min_y) / static_cast<double>(side) + 1e-9;

  // Bucket nodes by cell and shuffle each bucket.
  std::vector<std::vector<std::size_t>> cells(side * side);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cx = static_cast<std::size_t>(
        (graph.position(i).x - min_x) / cw);
    const auto cy = static_cast<std::size_t>(
        (graph.position(i).y - min_y) / ch);
    cells[std::min(cy, side - 1) * side + std::min(cx, side - 1)].push_back(
        i);
  }
  std::vector<std::size_t> out;
  out.reserve(count);
  std::vector<bool> taken(n, false);
  // Round-robin over occupied cells until the budget is filled.
  for (std::size_t round = 0; out.size() < count; ++round) {
    bool any = false;
    for (auto& cell : cells) {
      if (round < cell.size() && out.size() < count) {
        if (round == 0) {
          std::shuffle(cell.begin(), cell.end(), rng);
        }
        out.push_back(cell[round]);
        taken[cell[round]] = true;
        any = true;
      }
    }
    if (!any) {
      break;  // all nodes consumed
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fluxfp::sim
