#include "trace/ap.hpp"

#include <stdexcept>

namespace fluxfp::trace {

std::vector<AccessPoint> grid_aps(const geom::RectField& field,
                                  std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("grid_aps: zero rows or cols");
  }
  std::vector<AccessPoint> aps;
  aps.reserve(rows * cols);
  const double cw = field.width() / static_cast<double>(cols);
  const double ch = field.height() / static_cast<double>(rows);
  std::size_t id = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      aps.push_back({id,
                     {(static_cast<double>(c) + 0.5) * cw,
                      (static_cast<double>(r) + 0.5) * ch},
                     "AP" + std::to_string(r) + "-" + std::to_string(c)});
      ++id;
    }
  }
  return aps;
}

std::vector<std::size_t> ap_neighbors(std::span<const AccessPoint> aps,
                                      std::size_t i, double radius) {
  if (i >= aps.size()) {
    throw std::out_of_range("ap_neighbors: index out of range");
  }
  std::vector<std::size_t> out;
  const double r2 = radius * radius;
  for (std::size_t j = 0; j < aps.size(); ++j) {
    if (j != i && geom::distance2(aps[i].position, aps[j].position) <= r2) {
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace fluxfp::trace
