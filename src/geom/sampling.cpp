#include "geom/sampling.hpp"

#include <cmath>
#include <numbers>

namespace fluxfp::geom {

Vec2 uniform_in_field(const Field& field, Rng& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double u = unit(rng);
  const double v = unit(rng);
  return field.from_unit_square(u, v);
}

Vec2 uniform_in_disc(Vec2 center, double radius, Rng& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double r = radius * std::sqrt(unit(rng));
  const double theta = 2.0 * std::numbers::pi * unit(rng);
  return center + Vec2{r * std::cos(theta), r * std::sin(theta)};
}

Vec2 uniform_in_disc_clipped(Vec2 center, double radius,
                             const Field& field, Rng& rng, int max_tries) {
  for (int i = 0; i < max_tries; ++i) {
    const Vec2 p = uniform_in_disc(center, radius, rng);
    if (field.contains(p)) {
      return p;
    }
  }
  return field.clamp(uniform_in_disc(center, radius, rng));
}

std::vector<Vec2> uniform_points(const Field& field, std::size_t count,
                                 Rng& rng) {
  std::vector<Vec2> pts;
  pts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pts.push_back(uniform_in_field(field, rng));
  }
  return pts;
}

}  // namespace fluxfp::geom
