#pragma once

// Shared test bed of the netio server tests: one small seeded deployment,
// a Supervisor factory that registers sessions across tenants, and a
// merged multi-session event stream — the same construction idiom as the
// stream-layer tests, plus the tenant wiring the wire protocol needs.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/deployment.hpp"
#include "netio/server.hpp"
#include "sim/scenario.hpp"
#include "stream/emit.hpp"
#include "stream/manager.hpp"
#include "stream/supervisor.hpp"

namespace fluxfp::netio::testing {

struct Bed {
  geom::RectField field{20.0, 20.0};
  net::UnitDiskGraph graph;
  core::FluxModel model;
  std::vector<std::size_t> sniffers;

  Bed() : graph(make_graph()), model(field, 1.0) {
    for (std::size_t i = 0; i < graph.size(); i += 7) {
      sniffers.push_back(i);
    }
  }

  static net::UnitDiskGraph make_graph() {
    geom::Rng rng(99);
    const geom::RectField f(20.0, 20.0);
    return net::UnitDiskGraph(net::perturbed_grid(f, 8, 8, 0.3, rng), 4.0);
  }

  stream::StreamTracker tracker(std::uint64_t seed) const {
    stream::StreamTrackerConfig cfg;
    cfg.smc.num_predictions = 30;
    cfg.smc.num_keep = 4;
    cfg.expected_readings = sniffers.size();
    return stream::StreamTracker(model, graph, sniffers, 1, cfg, seed);
  }

  /// Factory registering `sessions` users; user u belongs to tenant
  /// u % tenants — the same map stream_daemon serve uses.
  stream::Supervisor::ManagerFactory factory(std::size_t sessions,
                                             std::size_t tenants,
                                             stream::ManagerConfig mc) const {
    return [this, sessions, tenants, mc] {
      auto m = std::make_unique<stream::TrackerManager>(mc);
      for (std::uint32_t u = 0; u < sessions; ++u) {
        stream::SessionOptions opts;
        opts.tenant = static_cast<std::uint32_t>(u % tenants);
        m->add_session(u, tracker(1000 + u), opts);
      }
      return m;
    };
  }

  std::vector<stream::FluxEvent> session_events(std::uint32_t user,
                                                int rounds,
                                                std::uint64_t seed) const {
    geom::Rng rng(seed);
    sim::SimUser su;
    su.mobility = std::make_shared<sim::RandomWaypointMobility>(
        field, 0.8, static_cast<double>(rounds) + 1.0, rng);
    sim::ScenarioConfig cfg;
    cfg.rounds = rounds;
    cfg.start_time = 0.17 * static_cast<double>(user);
    const auto obs = sim::run_scenario(graph, {su}, cfg, rng);
    return stream::scenario_events(graph, obs, sniffers, user);
  }

  std::vector<stream::FluxEvent> merged_stream(std::size_t sessions,
                                               int rounds,
                                               std::uint64_t seed) const {
    std::vector<std::vector<stream::FluxEvent>> streams;
    for (std::uint32_t u = 0; u < sessions; ++u) {
      streams.push_back(session_events(u, rounds, seed + u));
    }
    return stream::merge_by_time(streams);
  }
};

/// A per-test Unix-socket endpoint under /tmp. gtest tests may run as
/// separate processes in parallel, so the path carries the pid; within one
/// process the tag keeps tests apart.
inline Endpoint unix_endpoint(const char* tag) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "unix:/tmp/fxn_%s_%d.sock", tag,
                static_cast<int>(::getpid()));
  std::string why;
  auto ep = Endpoint::parse(buf, &why);
  if (!ep) {
    throw std::runtime_error(why);
  }
  return *ep;
}

}  // namespace fluxfp::netio::testing
