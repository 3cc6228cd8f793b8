#include "stream/manager.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/deployment.hpp"
#include "sim/faults.hpp"
#include "sim/scenario.hpp"
#include "stream/emit.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

namespace fluxfp::stream {
namespace {

/// Small shared deployment: an 8x8 perturbed grid with every 7th node
/// sniffed, and cheap SMC settings, so manager tests stay fast.
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

  StreamTracker tracker(std::uint64_t seed) const {
    StreamTrackerConfig cfg;
    cfg.smc.num_predictions = 30;
    cfg.smc.num_keep = 4;
    cfg.expected_readings = sniffers.size();
    return StreamTracker(model, graph, sniffers, 1, cfg, seed);
  }

  std::vector<FluxEvent> session_events(std::uint32_t user, int rounds,
                                        std::uint64_t seed) const {
    geom::Rng rng(seed);
    sim::SimUser su;
    su.mobility = std::make_shared<sim::RandomWaypointMobility>(
        field, 0.8, static_cast<double>(rounds) + 1.0, rng);
    sim::ScenarioConfig cfg;
    cfg.rounds = rounds;
    cfg.start_time = 0.17 * static_cast<double>(user);
    const auto obs = sim::run_scenario(graph, {su}, cfg, rng);
    return scenario_events(graph, obs, sniffers, user);
  }
};

/// Encoded images of a manager fed `events`: at two mid-stream quiesced
/// cuts and after finish() — the bit-identity currency. A session's state
/// holds its particles, weights and RNG position, so an epoch that fired
/// differently shows in every later image.
std::vector<std::string> run_manager(const Bed& bed,
                                     std::size_t num_sessions,
                                     std::size_t workers,
                                     const std::vector<FluxEvent>& events) {
  ManagerConfig mc;
  mc.workers = workers;
  TrackerManager m(mc);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    m.add_session(u, bed.tracker(1000 + u));
  }
  m.start();
  std::vector<std::string> images;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == events.size() / 3 || i == 2 * events.size() / 3) {
      images.push_back(encode_checkpoint(m.checkpoint()));
    }
    m.offer(events[i]);
  }
  m.finish();
  images.push_back(encode_checkpoint(m.checkpoint()));
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    EXPECT_GT(m.session(u).stats().epochs_fired, 0u) << "session " << u;
  }
  return images;
}

/// One session's state as an encoded image, for byte comparison.
std::string state_image(const StreamTracker& t) {
  return encode_checkpoint(
      ManagerCheckpoint{{SessionCheckpoint{0, {}, t.save_state()}}});
}

TEST(TrackerManager, ValidatesConfigAndLifecycle) {
  ManagerConfig bad;
  bad.workers = 0;
  EXPECT_THROW(TrackerManager m(bad), std::invalid_argument);
  bad = {};
  bad.queue_capacity = 0;
  EXPECT_THROW(TrackerManager m(bad), std::invalid_argument);

  const Bed bed;
  TrackerManager m({});
  EXPECT_THROW(m.start(), std::logic_error);  // no sessions
  m.add_session(3, bed.tracker(1));
  EXPECT_THROW(m.add_session(3, bed.tracker(2)), std::invalid_argument);
  EXPECT_EQ(m.offer({0.0, 3, 0, 0, 1.0}), PushStatus::kClosed);  // not started
  m.start();
  EXPECT_THROW(m.start(), std::logic_error);
  EXPECT_THROW(m.add_session(4, bed.tracker(3)), std::logic_error);
  EXPECT_EQ(m.offer({0.0, 9, 0, 0, 1.0}), PushStatus::kUnknownUser);
  m.finish();
  EXPECT_EQ(m.offer({0.0, 3, 0, 0, 1.0}), PushStatus::kClosed);  // shut down
  EXPECT_EQ(m.stats().unknown_user, 1u);
  EXPECT_THROW(m.session(9), std::invalid_argument);
}

TEST(TrackerManager, WorkerCountDoesNotChangeEstimates) {
  const Bed bed;
  constexpr std::size_t kSessions = 4;
  std::vector<std::vector<FluxEvent>> streams;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    streams.push_back(bed.session_events(u, 6, 77 + u));
  }
  const std::vector<FluxEvent> merged =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));
  ASSERT_FALSE(merged.empty());

  const std::vector<std::string> one = run_manager(bed, kSessions, 1, merged);
  const std::vector<std::string> four =
      run_manager(bed, kSessions, 4, merged);
  ASSERT_EQ(one.size(), 3u);
  // The cuts are mid-stream: the sessions moved on between them.
  EXPECT_NE(one[0], one[1]);
  EXPECT_NE(one[1], one[2]);
  // Bit-identical session states at every cut, at any worker count.
  EXPECT_EQ(one, four);
}

TEST(TrackerManager, SurvivesFiftyFaultInjectedRounds) {
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  constexpr int kRounds = 50;
  std::vector<std::vector<FluxEvent>> streams;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    streams.push_back(bed.session_events(u, kRounds, 55 + u));
  }
  const std::vector<FluxEvent> merged =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));

  sim::EventFaultPlan plan;
  plan.seed = 4;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.10;
  plan.late_prob = 0.03;
  plan.late_delay = 2.5;
  plan.jitter = 0.3;
  const std::vector<FluxEvent> faulty =
      sim::apply_event_faults(merged, plan);

  ManagerConfig mc;
  mc.workers = 2;
  mc.queue_capacity = 32;
  TrackerManager m(mc);
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    m.add_session(u, bed.tracker(1000 + u));
  }
  m.start();
  std::uint64_t accepted = 0;
  for (const FluxEvent& e : faulty) {
    accepted += m.offer(e) == PushStatus::kAccepted ? 1 : 0;
  }
  m.finish();

  const ManagerStats stats = m.stats();
  // The blocking queues are lossless: everything accepted was processed.
  EXPECT_EQ(stats.events_routed, accepted);
  EXPECT_EQ(stats.events_processed, accepted);
  EXPECT_GT(stats.epochs_fired, 0u);

  std::uint64_t duplicates = 0;
  std::uint64_t late = 0;
  std::uint64_t epochs = 0;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    const StreamStats& ss = m.session(u).stats();
    duplicates += ss.duplicates;
    late += ss.late;
    epochs += ss.epochs_fired;
    // Most windows made it through despite the fault storm.
    EXPECT_GT(ss.epochs_fired, static_cast<std::uint64_t>(kRounds / 2));
    // Every epoch, from a bare tracker fed the same faulty per-session
    // stream: finite, as many as the session fired, and ending in the
    // session's state.
    StreamTracker bare = bed.tracker(1000 + u);
    std::uint64_t fired = 0;
    const auto check = [&fired](const std::vector<EpochResult>& results) {
      for (const EpochResult& r : results) {
        EXPECT_TRUE(std::isfinite(r.estimates[0].x));
        EXPECT_TRUE(std::isfinite(r.estimates[0].y));
        ++fired;
      }
    };
    for (const FluxEvent& e : faulty) {
      if (e.user == u) {
        check(bare.on_event(e));
      }
    }
    check(bare.flush());
    EXPECT_EQ(fired, ss.epochs_fired);
    EXPECT_EQ(state_image(bare), state_image(m.session(u)));
  }
  EXPECT_EQ(stats.epochs_fired, epochs);
  // The deterministic fault plan exercised both anomaly paths.
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(late, 0u);
}

/// A tracker whose every event completes a window and runs an SMC step:
/// folding is orders of magnitude slower than offering, so quota pressure
/// is sustained without sleeping in the producer.
StreamTracker slow_tracker(const Bed& bed, std::uint64_t seed,
                           std::size_t num_predictions = 30) {
  StreamTrackerConfig cfg;
  cfg.smc.num_predictions = num_predictions;
  cfg.smc.num_keep = 4;
  cfg.expected_readings = 1;
  return StreamTracker(bed.model, bed.graph, bed.sniffers, 1, cfg, seed);
}

FluxEvent epoch_event(std::uint32_t user, std::uint32_t epoch,
                      const Bed& bed) {
  return {static_cast<double>(epoch), user, epoch,
          static_cast<std::uint32_t>(bed.sniffers[0]), 1.0};
}

TEST(TrackerManager, UnknownUserAndShedCountersMatchReturnedStatuses) {
  const Bed bed;
  ManagerConfig mc;
  mc.workers = 1;
  mc.queue_capacity = 64;
  mc.tenant_quota = 1;
  TrackerManager m(mc);
  // ~tens of ms per fold: the first accepted event pins the quota for the
  // whole (microseconds-long) offer loop, so shedding is structural, not
  // a scheduling race.
  m.add_session(0, slow_tracker(bed, 1, 50000));
#if defined(FLUXFP_OBS_ENABLED)
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t unknown0 =
      reg.counter("fluxfp_stream_unknown_user_total", "").value();
#endif
  m.start();
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  for (std::uint32_t e = 0; e < 40; ++e) {
    switch (m.offer(epoch_event(0, e, bed))) {
      case PushStatus::kAccepted:
        ++accepted;
        break;
      case PushStatus::kShedQuota:
        ++shed;
        break;
      default:
        FAIL() << "unexpected status at epoch " << e;
    }
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(m.offer(epoch_event(99, 0, bed)), PushStatus::kUnknownUser);
  }
  m.finish();

  const ManagerStats stats = m.stats();
  // The counters ARE the returned statuses — no private second ledger.
  EXPECT_EQ(stats.events_routed, accepted);
  EXPECT_EQ(stats.unknown_user, 3u);
  // Quota 1 against a flood: the quota must actually have shed, and
  // everything admitted was folded (shedding happens only at admission).
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(stats.events_processed, stats.events_routed);
#if defined(FLUXFP_OBS_ENABLED)
  // The obs mirror moved in lockstep with the statuses offer() returned.
  EXPECT_EQ(
      reg.counter("fluxfp_stream_unknown_user_total", "").value() - unknown0,
      3u);
#endif
}

}  // namespace
}  // namespace fluxfp::stream
