#include "eval/service_recipe.hpp"

#include <memory>

#include "eval/experiment.hpp"
#include "sim/mobility.hpp"
#include "sim/scenario.hpp"
#include "sim/sniffer.hpp"
#include "stream/emit.hpp"

namespace fluxfp::eval {

ServiceDeployment::ServiceDeployment(std::uint64_t seed)
    : rng(seed),
      field(20.0, 20.0),
      graph(build_connected_network({}, field, rng)),
      model(field, estimate_d_min(graph, field, rng)),
      sniffed(sim::sample_nodes_fraction(graph.size(), 0.12, rng)) {}

ServiceSessions simulate_service_sessions(const ServiceDeployment& dep,
                                          std::size_t sessions, int rounds,
                                          std::size_t users,
                                          std::uint64_t seed) {
  ServiceSessions out;
  out.truths.resize(sessions);
  std::vector<std::vector<stream::FluxEvent>> per_session;
  per_session.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    geom::Rng srng(seed + 1000 * (s + 1));
    std::vector<sim::SimUser> sim_users(users);
    for (sim::SimUser& user : sim_users) {
      user.mobility = std::make_shared<sim::RandomWaypointMobility>(
          dep.field, 0.8, static_cast<double>(rounds) + 1.0, srng);
    }
    sim::ScenarioConfig scfg;
    scfg.rounds = rounds;
    scfg.start_time = 0.13 * static_cast<double>(s);
    const auto obs = sim::run_scenario(dep.graph, sim_users, scfg, srng);
    for (const auto& o : obs) {
      out.truths[s].push_back(o.true_positions);
    }
    per_session.push_back(stream::scenario_events(
        dep.graph, obs, dep.sniffed, static_cast<std::uint32_t>(s)));
  }
  out.events = stream::merge_by_time(per_session);
  return out;
}

stream::StreamTrackerConfig service_tracker_config(
    const ServiceDeployment& dep) {
  stream::StreamTrackerConfig config;
  config.expected_readings = dep.sniffed.size();
  return config;
}

stream::StreamTracker make_service_tracker(
    const ServiceDeployment& dep, const stream::StreamTrackerConfig& config,
    std::size_t session, std::size_t users, std::uint64_t seed) {
  return stream::StreamTracker(dep.model, dep.graph, dep.sniffed, users,
                               config, seed + 500 * (session + 1));
}

}  // namespace fluxfp::eval
