#pragma once

#include <vector>

#include "geom/vec2.hpp"

namespace fluxfp::geom {

/// A piecewise-linear path through a sequence of waypoints, parameterized by
/// arc length. Used to describe ground-truth trajectories of mobile users
/// and the AP-derived mobility paths of the trace-driven experiment.
class Polyline {
 public:
  Polyline() = default;
  /// Builds a polyline over `points`. A single point yields a degenerate
  /// (zero-length) path that always evaluates to that point.
  explicit Polyline(std::vector<Vec2> points);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<Vec2>& points() const { return points_; }

  /// Total arc length.
  double length() const;

  /// Point at arc length `s` from the start; clamped to [0, length()].
  /// Throws std::logic_error on an empty polyline.
  Vec2 at_arclength(double s) const;

  /// Distance from `p` to the nearest point on the polyline. Throws
  /// std::logic_error on an empty polyline.
  double distance_to(Vec2 p) const;

  /// Appends a waypoint.
  void push_back(Vec2 p);

 private:
  std::vector<Vec2> points_;
  std::vector<double> cum_;  // cumulative arc length, cum_[0] == 0
};

}  // namespace fluxfp::geom
