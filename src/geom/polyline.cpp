#include "geom/polyline.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace fluxfp::geom {

Polyline::Polyline(std::vector<Vec2> points) : points_(std::move(points)) {
  cum_.reserve(points_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) {
      total += distance(points_[i - 1], points_[i]);
    }
    cum_.push_back(total);
  }
}

double Polyline::length() const { return cum_.empty() ? 0.0 : cum_.back(); }

Vec2 Polyline::at_arclength(double s) const {
  if (points_.empty()) {
    throw std::logic_error("Polyline::at_arclength on empty polyline");
  }
  if (points_.size() == 1 || s <= 0.0) {
    return points_.front();
  }
  if (s >= length()) {
    return points_.back();
  }
  // First segment end with cumulative length >= s.
  const auto it = std::lower_bound(cum_.begin(), cum_.end(), s);
  const std::size_t i = static_cast<std::size_t>(it - cum_.begin());
  const double seg_len = cum_[i] - cum_[i - 1];
  if (seg_len == 0.0) {
    return points_[i];
  }
  const double t = (s - cum_[i - 1]) / seg_len;
  return lerp(points_[i - 1], points_[i], t);
}

double Polyline::distance_to(Vec2 p) const {
  if (points_.empty()) {
    throw std::logic_error("Polyline::distance_to on empty polyline");
  }
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const Vec2 a = points_[i];
    const Vec2 b = points_[i + 1];
    const Vec2 ab = b - a;
    const double len2 = ab.norm2();
    double t = len2 > 0.0 ? dot(p - a, ab) / len2 : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    best = std::min(best, distance(p, a + ab * t));
  }
  if (points_.size() == 1) {
    best = distance(p, points_.front());
  }
  return best;
}

void Polyline::push_back(Vec2 p) {
  double total = cum_.empty() ? 0.0 : cum_.back();
  if (!points_.empty()) {
    total += distance(points_.back(), p);
  }
  points_.push_back(p);
  cum_.push_back(total);
}

}  // namespace fluxfp::geom
