#include "stream/supervisor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "net/deployment.hpp"
#include "sim/faults.hpp"
#include "sim/scenario.hpp"
#include "stream/emit.hpp"

namespace fluxfp::stream {
namespace {

/// Same small deployment as the manager tests.
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

  Supervisor::ManagerFactory factory(std::size_t num_sessions,
                                     std::size_t workers) const {
    return [this, num_sessions, workers] {
      ManagerConfig mc;
      mc.workers = workers;
      auto m = std::make_unique<TrackerManager>(mc);
      for (std::uint32_t u = 0; u < num_sessions; ++u) {
        m->add_session(u, tracker(1000 + u));
      }
      return m;
    };
  }

  std::vector<FluxEvent> merged_stream(std::size_t num_sessions, int rounds,
                                       std::uint64_t seed) const {
    std::vector<std::vector<FluxEvent>> streams;
    for (std::uint32_t u = 0; u < num_sessions; ++u) {
      streams.push_back(session_events(u, rounds, seed + u));
    }
    return merge_by_time(
        std::span<const std::vector<FluxEvent>>(streams));
  }
};

using Fired =
    std::vector<std::vector<std::tuple<std::uint32_t, double, double>>>;

Fired run_plain(const Bed& bed, std::size_t num_sessions,
                std::size_t workers, const std::vector<FluxEvent>& events) {
  auto m = bed.factory(num_sessions, workers)();
  m->start();
  for (const FluxEvent& e : events) {
    m->offer(e);
  }
  m->finish();
  Fired fired(num_sessions);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    for (const EpochResult& r : m->results(u)) {
      fired[u].emplace_back(r.epoch, r.estimates[0].x, r.estimates[0].y);
    }
  }
  return fired;
}

Fired collect(const Supervisor& sup, std::size_t num_sessions) {
  Fired fired(num_sessions);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    for (const EpochResult& r : sup.results(u)) {
      fired[u].emplace_back(r.epoch, r.estimates[0].x, r.estimates[0].y);
    }
  }
  return fired;
}

TEST(Supervisor, ValidatesConstructionAndLifecycle) {
  EXPECT_THROW(Supervisor(nullptr, {}), std::invalid_argument);
  SupervisorConfig bad;
  bad.backoff_factor = 0.5;
  const Bed bed;
  EXPECT_THROW(Supervisor(bed.factory(1, 1), bad), std::invalid_argument);

  Supervisor null_factory([] { return std::unique_ptr<TrackerManager>(); },
                          {});
  EXPECT_THROW(null_factory.start(), std::invalid_argument);

  Supervisor sup(bed.factory(1, 1), {});
  EXPECT_EQ(sup.offer({0.0, 0, 0, 0, 1.0}), PushStatus::kClosed);
  sup.start();
  EXPECT_THROW(sup.start(), std::logic_error);
  EXPECT_EQ(sup.users().size(), 1u);
  EXPECT_FALSE(sup.checkpoint_image().empty());  // epoch-zero baseline
  sup.finish();
  EXPECT_EQ(sup.offer({0.0, 0, 0, 0, 1.0}), PushStatus::kClosed);
  EXPECT_THROW(sup.results(9), std::invalid_argument);
}

TEST(Supervisor, NoCrashesMatchesPlainRunExactly) {
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 5, 31);
  const Fired plain = run_plain(bed, kSessions, 2, events);

  SupervisorConfig cfg;
  cfg.checkpoint_every_events = 16;
  Supervisor sup(bed.factory(kSessions, 2), cfg);
  sup.start();
  for (const FluxEvent& e : events) {
    EXPECT_EQ(sup.offer(e), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_EQ(collect(sup, kSessions), plain);
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.restarts, 0u);
  EXPECT_EQ(st.stalls_detected, 0u);
  EXPECT_GT(st.checkpoints, 2u);
  EXPECT_GT(st.checkpoint_bytes, kCheckpointHeaderBytes);
}

TEST(Supervisor, InjectedCrashesRestoreBitIdentically) {
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 57);
  ASSERT_GT(events.size(), 60u);
  const Fired plain = run_plain(bed, kSessions, 1, events);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SupervisorConfig cfg;
    cfg.checkpoint_every_events = 8;
    cfg.backoff_base = 0.0;  // restart on the next offer
    Supervisor sup(bed.factory(kSessions, workers), cfg);
    sup.start();
    // Kill at arbitrary, awkward points: right after start, mid-window,
    // twice in a row between checkpoints.
    const std::size_t kills[] = {1, events.size() / 3,
                                 events.size() / 3 + 2,
                                 events.size() - 3};
    std::size_t next_kill = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (next_kill < 4 && i == kills[next_kill]) {
        sup.inject_crash();
        EXPECT_TRUE(sup.shard_down());
        ++next_kill;
      }
      EXPECT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
    }
    sup.finish();
    EXPECT_EQ(collect(sup, kSessions), plain) << "workers " << workers;
    const SupervisorStats st = sup.stats();
    EXPECT_EQ(st.crashes_injected, 4u);
    EXPECT_EQ(st.restarts, 4u);
    EXPECT_GT(st.replayed_events, 0u);
  }
}

TEST(Supervisor, FaultPlanCrashEveryNEpochsSoak) {
  // The CI soak: a fault-injected stream (transport drops/dups/stragglers)
  // into a supervised service whose shard is killed every few epochs, with
  // real backoff so events are deferred and replayed. 2 sessions x 100
  // rounds = 200 epochs end to end; the committed results must still be
  // bit-identical to a run that never crashed.
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  constexpr int kRounds = 100;
  std::vector<FluxEvent> events = bed.merged_stream(kSessions, kRounds, 55);

  sim::EventFaultPlan eplan;
  eplan.seed = 4;
  eplan.drop_prob = 0.05;
  eplan.dup_prob = 0.10;
  eplan.late_prob = 0.03;
  eplan.late_delay = 2.5;
  eplan.jitter = 0.3;
  events = sim::apply_event_faults(events, eplan);

  const Fired plain = run_plain(bed, kSessions, 2, events);

  SupervisorConfig cfg;
  cfg.checkpoint_every_events = 32;
  cfg.backoff_base = 0.4;  // virtual seconds: defers a few events per kill
  cfg.backoff_factor = 2.0;
  cfg.max_restarts = 3;
  cfg.fault.crash_every_epochs = 10;
  Supervisor sup(bed.factory(kSessions, 2), cfg);
  sup.start();
  for (const FluxEvent& e : events) {
    EXPECT_EQ(sup.offer(e), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_FALSE(sup.failed());

  EXPECT_EQ(collect(sup, kSessions), plain);
  const SupervisorStats st = sup.stats();
  EXPECT_GT(st.crashes_injected, 10u);  // ~200 epochs / every 10
  EXPECT_EQ(st.restarts, st.crashes_injected);
  EXPECT_GT(st.events_deferred, 0u);   // backoff deferred live traffic
  EXPECT_GT(st.replayed_events, 0u);
  EXPECT_EQ(st.sessions_shed, 0u);
  std::uint64_t epochs = 0;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    epochs += sup.manager()->session(u).stats().epochs_fired;
    for (const EpochResult& r : sup.results(u)) {
      EXPECT_TRUE(std::isfinite(r.estimates[0].x));
      EXPECT_TRUE(std::isfinite(r.estimates[0].y));
    }
  }
  EXPECT_EQ(epochs, static_cast<std::uint64_t>(kSessions * kRounds));
}

TEST(Supervisor, HealthProbeForcesRestartFromLastGoodImage) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(1, 5, 13);
  const Fired plain = run_plain(bed, 1, 1, events);

  int probes = 0;
  SupervisorConfig cfg;
  cfg.checkpoint_every_events = 8;
  cfg.backoff_base = 0.0;
  cfg.health_probe = [&probes](const TrackerManager&) {
    // Declare the shard diverged at the third supervision boundary.
    return ++probes != 3;
  };
  Supervisor sup(bed.factory(1, 1), cfg);
  sup.start();
  for (const FluxEvent& e : events) {
    sup.offer(e);
  }
  sup.finish();
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.stalls_detected, 1u);
  EXPECT_EQ(st.restarts, 1u);
  EXPECT_FALSE(sup.failed());
  // Recovery is exact even for a probe-triggered restart.
  EXPECT_EQ(collect(sup, 1), plain);
}

TEST(Supervisor, GivesUpAfterMaxRestartsAndShedsSessions) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(2, 6, 17);

  SupervisorConfig cfg;
  cfg.checkpoint_every_events = 4;
  cfg.backoff_base = 0.0;
  cfg.max_restarts = 2;
  cfg.health_probe = [](const TrackerManager&) { return false; };
  Supervisor sup(bed.factory(2, 1), cfg);
  sup.start();
  bool saw_closed = false;
  for (const FluxEvent& e : events) {
    if (sup.offer(e) == PushStatus::kClosed) {
      saw_closed = true;
      break;
    }
  }
  EXPECT_TRUE(saw_closed);
  EXPECT_TRUE(sup.failed());
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.sessions_shed, 2u);
  // Failed supervisors keep the committed prefix readable.
  sup.finish();
  EXPECT_NO_THROW(sup.results(0));
}

TEST(Supervisor, DownShardRejectsUnknownUsersWhileDeferring) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(1, 4, 23);
  SupervisorConfig cfg;
  cfg.checkpoint_every_events = 0;  // only the baseline image
  cfg.backoff_base = 1e6;           // stays down for the whole test
  Supervisor sup(bed.factory(1, 1), cfg);
  sup.start();
  sup.offer(events[0]);
  sup.inject_crash();
  ASSERT_TRUE(sup.shard_down());
  EXPECT_EQ(sup.offer({events[1].time, 42, 0, 0, 1.0}),
            PushStatus::kUnknownUser);
  EXPECT_EQ(sup.offer(events[1]), PushStatus::kAccepted);  // deferred
  EXPECT_EQ(sup.stats().events_deferred, 1u);
  // finish() ignores the backoff clock and drains everything.
  sup.finish();
  EXPECT_FALSE(sup.failed());
  EXPECT_EQ(sup.stats().restarts, 1u);
  EXPECT_EQ(sup.stats().replayed_events, 2u);
}

TEST(Supervisor, HeartbeatHasNoFalsePositivesOnAHealthyShard) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(2, 5, 41);
  SupervisorConfig cfg;
  cfg.checkpoint_every_events = 16;
  // Max-speed replay makes virtual time outrun the workers by design, so
  // a replay-safe deadline must exceed the stream's whole span (see the
  // heartbeat_deadline docs); a healthy shard must never trip it.
  cfg.heartbeat_deadline = 100.0;
  Supervisor sup(bed.factory(2, 2), cfg);
  sup.start();
  for (const FluxEvent& e : events) {
    EXPECT_EQ(sup.offer(e), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_EQ(sup.stats().stalls_detected, 0u);
  EXPECT_EQ(sup.stats().restarts, 0u);
}

}  // namespace
}  // namespace fluxfp::stream
