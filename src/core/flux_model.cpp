#include "core/flux_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/simd/kernels.hpp"

namespace fluxfp::core {

FluxModel::FluxModel(const geom::Field& field, double d_min)
    : field_(&field), d_min_(d_min) {
  if (!(d_min > 0.0)) {
    throw std::invalid_argument("FluxModel: d_min must be positive");
  }
  if (const auto* rect = dynamic_cast<const geom::RectField*>(&field)) {
    kind_ = FieldKind::kRect;
    rect_width_ = rect->width();
    rect_height_ = rect->height();
  } else if (const auto* circle =
                 dynamic_cast<const geom::CircleField*>(&field)) {
    kind_ = FieldKind::kCircle;
    circle_center_ = circle->center();
    circle_radius_ = circle->radius();
  }
}

double FluxModel::shape(geom::Vec2 sink, geom::Vec2 node) const {
  // A NaN/inf coordinate would flow through distance() and the boundary
  // ray into a NaN shape value, which SparseObjective folds into every fit
  // it touches without any error surfacing. Refuse it at the boundary.
  if (!std::isfinite(sink.x) || !std::isfinite(sink.y) ||
      !std::isfinite(node.x) || !std::isfinite(node.y)) {
    throw std::invalid_argument("FluxModel::shape: non-finite position");
  }
  // Clamp the sink into the field (candidate positions may sit on the
  // boundary within rounding).
  const geom::Vec2 p = field_->clamp(sink);
  if (kind_ == FieldKind::kRect) {
    // The one definition of the rect shape, shared with the SIMD lanes.
    return numeric::simd::rect_shape(
        sink.x, sink.y, p.x, p.y, rect_width_, rect_height_, d_min_,
        field_->nearest_boundary_distance(p), node.x, node.y);
  }
  const double d = geom::distance(sink, node);
  // boundary_distance_through handles the degenerate node == sink ray
  // internally.
  const double l = field_->boundary_distance_through(p, node);
  // l is measured from the sink through the node to the boundary, so for a
  // node inside the field l >= d; guard against clamping artifacts anyway.
  const double l2_minus_d2 = std::max(l * l - d * d, 0.0);
  return l2_minus_d2 / (2.0 * std::max(d, d_min_));
}

bool FluxModel::shape_row(geom::Vec2 sink, const double* qx, const double* qy,
                          std::size_t n, double* out) const {
  if (kind_ == FieldKind::kGeneric || !numeric::simd::enabled() ||
      !std::isfinite(sink.x) || !std::isfinite(sink.y)) {
    return false;
  }
  // The clamped sink and its nearest-boundary fallback come from the same
  // virtual calls the scalar path uses, so the kernels see bit-identical
  // row constants. clamp() is idempotent, so nearest_boundary_distance at
  // the already-clamped point matches boundary_distance_through's
  // clamp(origin) fallback exactly.
  const geom::Vec2 p = field_->clamp(sink);
  const double l_degenerate = field_->nearest_boundary_distance(p);
  if (kind_ == FieldKind::kRect) {
    return numeric::simd::rect_shape_row(sink.x, sink.y, p.x, p.y, rect_width_,
                                         rect_height_, d_min_, l_degenerate,
                                         qx, qy, n, out);
  }
  return numeric::simd::circle_shape_row(
      sink.x, sink.y, p.x, p.y, circle_center_.x, circle_center_.y,
      circle_radius_, d_min_, l_degenerate, qx, qy, n, out);
}

double FluxModel::continuous_flux(geom::Vec2 sink, geom::Vec2 node,
                                  double s) const {
  return s * shape(sink, node);
}

double FluxModel::discrete_flux(geom::Vec2 sink, geom::Vec2 node, double s,
                                double r) const {
  if (!(r > 0.0)) {
    throw std::invalid_argument("FluxModel::discrete_flux: r must be > 0");
  }
  return (s / r) * shape(sink, node);
}

}  // namespace fluxfp::core
