#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/flux_model.hpp"
#include "geom/field.hpp"
#include "geom/sampling.hpp"
#include "net/graph.hpp"
#include "stream/event.hpp"
#include "stream/stream_tracker.hpp"

namespace fluxfp::eval {

/// The tracking service's seeded deployment, as stream_daemon runs it: a
/// 20 x 20 RectField, the default NetworkSpec, one calibrated flux model,
/// 12% of the nodes sniffed. Everything derives from the seed, so `serve`
/// on one host and `local --restore` on another rebuild the same network,
/// and a snapshot taken against it restores cleanly.
struct ServiceDeployment {
  geom::Rng rng;  ///< the construction stream; later members draw from it
  geom::RectField field;
  net::UnitDiskGraph graph;
  core::FluxModel model;
  std::vector<std::size_t> sniffed;

  explicit ServiceDeployment(std::uint64_t seed);
};

/// Simulated tracking sessions over a deployment.
struct ServiceSessions {
  std::vector<stream::FluxEvent> events;  ///< every session, merged by time
  /// [session][round][user]: the true positions at each observation round;
  /// round r is the epoch id of the window it produced.
  std::vector<std::vector<std::vector<geom::Vec2>>> truths;
};

/// Simulates `sessions` sessions of `rounds` rounds. Session s carries
/// `users` random-waypoint users (speed 0.8) drawn from their own stream,
/// seeded seed + 1000 (s + 1), and starts 0.13 time units after session
/// s - 1, so the merged stream interleaves sessions.
ServiceSessions simulate_service_sessions(const ServiceDeployment& dep,
                                          std::size_t sessions, int rounds,
                                          std::size_t users,
                                          std::uint64_t seed);

/// The service's tracker policy on this deployment: the StreamTrackerConfig
/// defaults (so the service's N), with a window closing as soon as every
/// sniffer has reported.
stream::StreamTrackerConfig service_tracker_config(
    const ServiceDeployment& dep);

/// Session `session`'s tracker, seeded seed + 500 (session + 1): every
/// incarnation of a session gets the same construction inputs (the restore
/// contract of the checkpoint format).
stream::StreamTracker make_service_tracker(
    const ServiceDeployment& dep, const stream::StreamTrackerConfig& config,
    std::size_t session, std::size_t users, std::uint64_t seed);

}  // namespace fluxfp::eval
