#pragma once

#include <memory>

#include "geom/field.hpp"
#include "geom/polyline.hpp"
#include "geom/sampling.hpp"
#include "geom/vec2.hpp"

namespace fluxfp::sim {

/// A mobility model maps absolute time to a position in the field.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual geom::Vec2 position_at(double time) const = 0;
};

/// A user that never moves.
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(geom::Vec2 pos) : pos_(pos) {}
  geom::Vec2 position_at(double) const override { return pos_; }

 private:
  geom::Vec2 pos_;
};

/// Constant-speed travel along a polyline starting at `start_time`;
/// clamps to the endpoints outside the traversal interval.
class PathMobility final : public MobilityModel {
 public:
  PathMobility(geom::Polyline path, double speed, double start_time = 0.0);
  geom::Vec2 position_at(double time) const override;
  const geom::Polyline& path() const { return path_; }
  double speed() const { return speed_; }

 private:
  geom::Polyline path_;
  double speed_;
  double start_time_;
};

/// Classic random-waypoint mobility: repeatedly pick a uniform waypoint in
/// the field and walk toward it at `speed` (no pause time). The waypoint
/// sequence is pre-generated to cover [0, duration] so position queries are
/// deterministic after construction.
class RandomWaypointMobility final : public MobilityModel {
 public:
  RandomWaypointMobility(const geom::Field& field, double speed,
                         double duration, geom::Rng& rng);
  geom::Vec2 position_at(double time) const override;
  const geom::Polyline& path() const { return path_; }

 private:
  geom::Polyline path_;
  double speed_;
};

}  // namespace fluxfp::sim
