#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/deployment.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"
#include "stream/emit.hpp"
#include "stream/manager.hpp"

namespace fluxfp::obs {
namespace {

/// Stream bed mirroring tests/stream/test_manager.cpp: an 8x8 perturbed
/// grid, every 7th node sniffed, cheap SMC settings.
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
};

/// One full manager run against the given worker count, then a snapshot of
/// the stable exports. reset_values() first so each run starts from zero.
struct StableSnapshot {
  std::string text;
  std::string json;
};

StableSnapshot run_and_snapshot(const Bed& bed, std::size_t workers,
                                const std::vector<stream::FluxEvent>& events) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  stream::ManagerConfig mc;
  mc.workers = workers;
  stream::TrackerManager m(mc);
  constexpr std::uint32_t kSessions = 3;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    m.add_session(u, bed.tracker(1000 + u));
  }
  m.start();
  for (const stream::FluxEvent& e : events) {
    m.offer(e);
  }
  m.finish();
  return {reg.export_text(false), reg.export_json(false)};
}

TEST(ObsDeterminism, StableExportsAreByteIdenticalAcrossRunsAndWorkers) {
  const bool was_enabled = enabled();
  set_enabled(true);
  const Bed bed;
  std::vector<std::vector<stream::FluxEvent>> streams;
  for (std::uint32_t u = 0; u < 3; ++u) {
    streams.push_back(bed.session_events(u, 5, 77 + u));
  }
  const std::vector<stream::FluxEvent> merged = stream::merge_by_time(
      std::span<const std::vector<stream::FluxEvent>>(streams));
  ASSERT_FALSE(merged.empty());

  // Identical replay, twice: stable exports must be byte-identical.
  const StableSnapshot first = run_and_snapshot(bed, 1, merged);
  const StableSnapshot again = run_and_snapshot(bed, 1, merged);
  EXPECT_EQ(first.text, again.text);
  EXPECT_EQ(first.json, again.json);

  // Worker count is a scheduling knob: it must not move a stable metric.
  const StableSnapshot four = run_and_snapshot(bed, 4, merged);
  EXPECT_EQ(first.text, four.text);
  EXPECT_EQ(first.json, four.json);

  // Sanity: the snapshot is not trivially empty — no quota is lossless, so
  // the (stable) push counter must equal the replayed trace exactly.
  EXPECT_NE(first.text.find("fluxfp_stream_queue_pushed_total " +
                            std::to_string(merged.size())),
            std::string::npos);
  EXPECT_NE(first.text.find("fluxfp_stream_epochs_fired_total"),
            std::string::npos);
  set_enabled(was_enabled);
}

}  // namespace
}  // namespace fluxfp::obs
