#pragma once

#include <cstddef>
#include <memory>

#include "core/observation_model.hpp"
#include "geom/field.hpp"
#include "geom/vec2.hpp"

namespace fluxfp::core {

/// Concrete field geometry recognized by the vectorized shape kernels.
/// Detected once at FluxModel construction so the per-row hot path never
/// pays for a dynamic_cast.
enum class FieldKind { kGeneric, kRect, kCircle };

/// The parameterized network-flux model of §3.B.
///
/// Continuous form (Eq. 3.2): a sink at p induces, at a point q at distance
/// d = |p-q| whose boundary distance along the ray p->q is l, the flux
///     F = s * (l^2 - d^2) / (2 d).
/// Discrete form (Eq. 3.4) divides by the average hop length r:
///     F ≈ (s/r) * (l^2 - d^2) / (2 d).
///
/// The model diverges as d -> 0 (all traffic funnels through the sink's
/// immediate neighbors), so predictions clamp d at `d_min` — typically the
/// average hop length. The paper's own accuracy analysis (Fig. 3(b))
/// likewise excludes the innermost hops.
///
/// FluxModel is the reference ObservationModel backend (ModelId::kFlux):
/// site_shape/site_shape_row forward to the legacy shape/shape_row on the
/// point endpoint site.a, so the polymorphic path is bit-identical to the
/// pre-interface tree.
class FluxModel final : public ObservationModel {
 public:
  /// `d_min` > 0 is the distance clamp. The field reference must outlive
  /// the model.
  FluxModel(const geom::Field& field, double d_min);

  /// The unit-stretch "shape" phi(p, q) = (l^2 - d^2) / (2 max(d, d_min)).
  /// Multiply by s (continuous) or s/r (discrete) to get a flux amount.
  /// On a RectField this is numeric::simd::rect_shape, the one definition
  /// the SIMD lanes share (1 root, 2 divisions); other fields compose
  /// distance() with Field::boundary_distance_through.
  /// Always >= 0 for q inside the field, and always finite: the d_min clamp
  /// caps the d -> 0 singularity at l^2 / (2 d_min) — the value returned
  /// for a node exactly at the sink. Throws std::invalid_argument on
  /// non-finite coordinates (a NaN position must never reach the objective
  /// as a silently-NaN column).
  double shape(geom::Vec2 sink, geom::Vec2 node) const;

  /// Batch shape row: out[i] = shape(sink, {qx[i], qy[i]}) for i in [0, n),
  /// evaluated by the SIMD kernels (structure-of-arrays input). Returns
  /// false — leaving out in an unspecified state — when no vector backend
  /// is compiled in, the field is not a recognized Rect/Circle geometry,
  /// or any coordinate is non-finite; the caller must then run the scalar
  /// shape() loop on the same buffer, which has the same arithmetic and
  /// throws on non-finite positions. When it returns true, every out[i] is
  /// bit-identical to shape(sink, {qx[i], qy[i]}) (element-wise lanes, no
  /// reductions — see DESIGN.md section 14).
  bool shape_row(geom::Vec2 sink, const double* qx, const double* qy,
                 std::size_t n, double* out) const;

  /// Continuous-model flux (Eq. 3.2): s * shape.
  double continuous_flux(geom::Vec2 sink, geom::Vec2 node, double s) const;

  /// Discrete-model flux (Eq. 3.4): (s/r) * shape.
  double discrete_flux(geom::Vec2 sink, geom::Vec2 node, double s,
                       double r) const;

  // ObservationModel backend: point sites, site.a is the sniffer position.
  ModelId id() const override { return ModelId::kFlux; }
  std::unique_ptr<ObservationModel> clone() const override {
    return std::make_unique<FluxModel>(*this);
  }
  const char* stretch_unit() const override {
    return "traffic rate over hop length (s/r)";
  }
  double site_shape(geom::Vec2 sink, const Site& site) const override {
    return shape(sink, site.a);
  }
  bool site_shape_row(geom::Vec2 sink, const SiteRows& sites, std::size_t n,
                      double* out) const override {
    return shape_row(sink, sites.ax, sites.ay, n, out);
  }

  const geom::Field& field() const { return *field_; }
  double d_min() const { return d_min_; }
  FieldKind field_kind() const { return kind_; }

 private:
  const geom::Field* field_;
  double d_min_;
  FieldKind kind_ = FieldKind::kGeneric;
  // Cached geometry parameters for the recognized field kinds; unused for
  // kGeneric.
  double rect_width_ = 0.0;
  double rect_height_ = 0.0;
  geom::Vec2 circle_center_{0.0, 0.0};
  double circle_radius_ = 0.0;
};

}  // namespace fluxfp::core
