#include "net/deployment.hpp"

#include <cmath>
#include <stdexcept>

namespace fluxfp::net {

std::vector<geom::Vec2> perturbed_grid(const geom::RectField& field,
                                       std::size_t rows, std::size_t cols,
                                       double jitter_fraction,
                                       geom::Rng& rng) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("perturbed_grid: zero rows or cols");
  }
  if (jitter_fraction < 0.0 || jitter_fraction > 1.0) {
    throw std::invalid_argument("perturbed_grid: jitter outside [0,1]");
  }
  const double cw = field.width() / static_cast<double>(cols);
  const double ch = field.height() / static_cast<double>(rows);
  std::uniform_real_distribution<double> jitter(-0.5, 0.5);
  std::vector<geom::Vec2> pts;
  pts.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const geom::Vec2 center{(static_cast<double>(c) + 0.5) * cw,
                              (static_cast<double>(r) + 0.5) * ch};
      const geom::Vec2 off{jitter(rng) * cw * jitter_fraction,
                           jitter(rng) * ch * jitter_fraction};
      pts.push_back(field.clamp(center + off));
    }
  }
  return pts;
}

std::vector<geom::Vec2> uniform_random(const geom::Field& field,
                                       std::size_t count, geom::Rng& rng) {
  return geom::uniform_points(field, count, rng);
}

std::vector<geom::Vec2> clustered(const geom::Field& field,
                                  std::size_t count, std::size_t clusters,
                                  double spread, geom::Rng& rng) {
  if (clusters == 0 || !(spread >= 0.0)) {
    throw std::invalid_argument("clustered: bad clusters/spread");
  }
  std::vector<geom::Vec2> centers;
  centers.reserve(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    centers.push_back(geom::uniform_in_field(field, rng));
  }
  // Unit draws scaled by `spread`: normal_distribution requires a
  // positive sigma, and spread 0 (every node at its center) is legal here.
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<geom::Vec2> pts;
  pts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const geom::Vec2 center = centers[i % clusters];
    pts.push_back(field.clamp(
        center + geom::Vec2{spread * gauss(rng), spread * gauss(rng)}));
  }
  return pts;
}

std::vector<geom::Vec2> deploy(DeploymentKind kind, const geom::Field& field,
                               std::size_t count, geom::Rng& rng) {
  switch (kind) {
    case DeploymentKind::kPerturbedGrid: {
      const auto* rect = dynamic_cast<const geom::RectField*>(&field);
      if (rect == nullptr) {
        throw std::invalid_argument(
            "deploy: perturbed grids require a rectangular field");
      }
      // rows/cols matching the aspect ratio with rows*cols ~= count.
      const double aspect = rect->width() / rect->height();
      auto rows = static_cast<std::size_t>(
          std::round(std::sqrt(static_cast<double>(count) / aspect)));
      rows = std::max<std::size_t>(rows, 1);
      const auto cols = std::max<std::size_t>(
          static_cast<std::size_t>(std::round(static_cast<double>(count) /
                                              static_cast<double>(rows))),
          1);
      return perturbed_grid(*rect, rows, cols, 0.5, rng);
    }
    case DeploymentKind::kUniformRandom:
      return uniform_random(field, count, rng);
    case DeploymentKind::kClustered: {
      // Cluster geometry scaled to the field: ~1 cluster per 9x9 patch,
      // spread a third of the patch.
      const auto clusters_n = std::max<std::size_t>(
          static_cast<std::size_t>(field.area() / 81.0), 2);
      return clustered(field, count, clusters_n, 3.0, rng);
    }
  }
  throw std::invalid_argument("deploy: unknown kind");
}

const char* to_string(DeploymentKind kind) {
  switch (kind) {
    case DeploymentKind::kPerturbedGrid:
      return "perturbed-grid";
    case DeploymentKind::kUniformRandom:
      return "random";
    case DeploymentKind::kClustered:
      return "clustered";
  }
  return "?";
}

}  // namespace fluxfp::net
