#include "sim/mobility.hpp"

#include <algorithm>
#include <stdexcept>

namespace fluxfp::sim {

PathMobility::PathMobility(geom::Polyline path, double speed,
                           double start_time)
    : path_(std::move(path)), speed_(speed), start_time_(start_time) {
  if (path_.empty()) {
    throw std::invalid_argument("PathMobility: empty path");
  }
  if (!(speed >= 0.0)) {
    throw std::invalid_argument("PathMobility: negative speed");
  }
}

geom::Vec2 PathMobility::position_at(double time) const {
  const double s = std::max(0.0, time - start_time_) * speed_;
  return path_.at_arclength(s);
}

RandomWaypointMobility::RandomWaypointMobility(const geom::Field& field,
                                               double speed, double duration,
                                               geom::Rng& rng)
    : speed_(speed) {
  if (!(speed > 0.0) || !(duration >= 0.0)) {
    throw std::invalid_argument("RandomWaypointMobility: bad speed/duration");
  }
  const double needed = speed * duration;
  path_.push_back(geom::uniform_in_field(field, rng));
  while (path_.length() < needed) {
    path_.push_back(geom::uniform_in_field(field, rng));
  }
}

geom::Vec2 RandomWaypointMobility::position_at(double time) const {
  return path_.at_arclength(std::max(0.0, time) * speed_);
}

}  // namespace fluxfp::sim
