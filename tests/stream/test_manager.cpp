#include "stream/manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "net/deployment.hpp"
#include "sim/faults.hpp"
#include "sim/scenario.hpp"
#include "stream/emit.hpp"
#include "stream/trace_io.hpp"

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

/// Per-user fired (epoch, estimate) sequences — the bit-identity currency.
using Fired = std::vector<std::vector<std::tuple<std::uint32_t, double,
                                                 double>>>;

Fired run_manager(const Bed& bed, std::size_t num_sessions,
                  std::size_t workers,
                  const std::vector<FluxEvent>& events) {
  ManagerConfig mc;
  mc.workers = workers;
  TrackerManager m(mc);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    m.add_session(u, bed.tracker(1000 + u));
  }
  m.start();
  for (const FluxEvent& e : events) {
    m.offer(e);
  }
  m.finish();
  Fired fired(num_sessions);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    for (const EpochResult& r : m.results(u)) {
      fired[u].emplace_back(r.epoch, r.estimates[0].x, r.estimates[0].y);
    }
  }
  return fired;
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
  EXPECT_THROW(m.results(9), std::invalid_argument);
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

  const Fired one = run_manager(bed, kSessions, 1, merged);
  const Fired four = run_manager(bed, kSessions, 4, merged);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t u = 0; u < kSessions; ++u) {
    ASSERT_FALSE(one[u].empty());
    // Bit-identical per-session results at any worker count.
    EXPECT_EQ(one[u], four[u]) << "session " << u;
  }
}

TEST(TrackerManager, TraceReplayMatchesDirectPush) {
  const Bed bed;
  std::vector<std::vector<FluxEvent>> streams;
  for (std::uint32_t u = 0; u < 2; ++u) {
    streams.push_back(bed.session_events(u, 5, 31 + u));
  }
  const std::vector<FluxEvent> merged =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));

  const Fired direct = run_manager(bed, 2, 2, merged);

  std::stringstream buffer;
  TraceRecorder rec(buffer);
  rec.write(std::span<const FluxEvent>(merged));
  ManagerConfig mc;
  mc.workers = 2;
  TrackerManager m(mc);
  for (std::uint32_t u = 0; u < 2; ++u) {
    m.add_session(u, bed.tracker(1000 + u));
  }
  m.start();
  TraceReplayer rep(buffer);
  EXPECT_EQ(replay_trace(rep, m), merged.size());
  m.finish();
  for (std::uint32_t u = 0; u < 2; ++u) {
    std::vector<std::tuple<std::uint32_t, double, double>> replayed;
    for (const EpochResult& r : m.results(u)) {
      replayed.emplace_back(r.epoch, r.estimates[0].x, r.estimates[0].y);
    }
    EXPECT_EQ(replayed, direct[u]) << "session " << u;
  }
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
  EXPECT_EQ(stats.filter_micros.size(), stats.epochs_fired);

  std::uint64_t duplicates = 0;
  std::uint64_t late = 0;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    const StreamStats& ss = m.session(u).stats();
    duplicates += ss.duplicates;
    late += ss.late;
    // Most windows made it through despite the fault storm.
    EXPECT_GT(ss.epochs_fired, static_cast<std::uint64_t>(kRounds / 2));
    for (const EpochResult& r : m.results(u)) {
      EXPECT_TRUE(std::isfinite(r.estimates[0].x));
      EXPECT_TRUE(std::isfinite(r.estimates[0].y));
    }
  }
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
  mc.admission = AdmissionPolicy::kShedNewest;
  TrackerManager m(mc);
  // ~tens of ms per fold: the first accepted event pins the quota for the
  // whole (microseconds-long) offer loop, so shedding is structural, not
  // a scheduling race.
  m.add_session(0, slow_tracker(bed, 1, 50000));
#if defined(FLUXFP_OBS_ENABLED)
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t shed0 =
      reg.counter("fluxfp_stream_quota_shed_total", "",
                  obs::Determinism::kScheduling)
          .value();
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
  EXPECT_EQ(stats.events_shed, shed);
  EXPECT_EQ(stats.unknown_user, 3u);
  // Quota 1 against a flood: the policy must actually have shed, and
  // everything admitted was folded (kShedNewest loses only at admission).
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(stats.events_processed, stats.events_routed);
  EXPECT_EQ(stats.events_evicted, 0u);
#if defined(FLUXFP_OBS_ENABLED)
  // The obs mirrors moved in lockstep with the statuses offer() returned.
  EXPECT_EQ(reg.counter("fluxfp_stream_quota_shed_total", "",
                        obs::Determinism::kScheduling)
                    .value() -
                shed0,
            shed);
  EXPECT_EQ(
      reg.counter("fluxfp_stream_unknown_user_total", "").value() - unknown0,
      3u);
#endif
}

TEST(TrackerManager, ShedLowestPriorityDisplacesForTheImportantSession) {
  const Bed bed;
  ManagerConfig mc;
  mc.workers = 1;
  mc.queue_capacity = 64;
  mc.tenant_quota = 2;
  mc.admission = AdmissionPolicy::kShedLowestPriority;
  TrackerManager m(mc);
  SessionOptions low;
  low.tenant = 7;
  low.priority = 0;
  SessionOptions high;
  high.tenant = 7;
  high.priority = 9;
  m.add_session(0, slow_tracker(bed, 1, 50000), low);
  m.add_session(1, slow_tracker(bed, 2, 50000), high);
#if defined(FLUXFP_OBS_ENABLED)
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t shed0 =
      reg.counter("fluxfp_stream_quota_shed_total", "",
                  obs::Determinism::kScheduling)
          .value();
  const std::uint64_t evicted0 =
      reg.counter("fluxfp_stream_quota_evicted_total", "",
                  obs::Determinism::kScheduling)
          .value();
#endif
  m.start();
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  const auto offer_counted = [&](const FluxEvent& e) {
    switch (m.offer(e)) {
      case PushStatus::kAccepted:
        ++accepted;
        break;
      case PushStatus::kShedQuota:
        ++shed;
        break;
      default:
        FAIL() << "unexpected admission status";
    }
  };
  // A low-priority flood first (equal rank cannot displace itself), then
  // the high-priority session arrives and must displace queued low work.
  for (std::uint32_t e = 0; e < 20; ++e) {
    offer_counted(epoch_event(0, e, bed));
  }
  for (std::uint32_t e = 0; e < 20; ++e) {
    offer_counted(epoch_event(1, e, bed));
  }
  m.finish();

  const ManagerStats stats = m.stats();
  EXPECT_EQ(stats.events_routed, accepted);
  EXPECT_EQ(stats.events_shed, shed);
  EXPECT_GT(shed, 0u);             // the flood exceeded the quota
  EXPECT_GT(stats.events_evicted, 0u);  // and the VIP displaced queued work
  // Conservation: every routed event was folded or displaced — a
  // displaced event leaves the quota ledger AND the queue accounting.
  EXPECT_EQ(stats.events_processed + stats.events_evicted,
            stats.events_routed);
#if defined(FLUXFP_OBS_ENABLED)
  EXPECT_EQ(reg.counter("fluxfp_stream_quota_shed_total", "",
                        obs::Determinism::kScheduling)
                    .value() -
                shed0,
            stats.events_shed);
  EXPECT_EQ(reg.counter("fluxfp_stream_quota_evicted_total", "",
                        obs::Determinism::kScheduling)
                    .value() -
                evicted0,
            stats.events_evicted);
#endif
}

TEST(TrackerManager, BlockQuotaProducerIsWokenByFinish) {
  const Bed bed;
  ManagerConfig mc;
  mc.workers = 1;
  mc.queue_capacity = 64;
  mc.tenant_quota = 2;
  mc.admission = AdmissionPolicy::kBlock;
  TrackerManager m(mc);
  // Heavy SMC settings: one fold takes hundreds of milliseconds, so the
  // quota stays saturated across the whole handshake below.
  m.add_session(0, slow_tracker(bed, 1, 500000));
  m.start();
  ASSERT_EQ(m.offer(epoch_event(0, 0, bed)), PushStatus::kAccepted);
  ASSERT_EQ(m.offer(epoch_event(0, 1, bed)), PushStatus::kAccepted);
  std::atomic<bool> offer_returned{false};
  std::atomic<PushStatus> offer_status{PushStatus::kAccepted};
  // fluxfp-lint: allow(no-raw-thread) -- must park a producer inside a
  // quota-blocked offer() and watch finish() release it from outside.
  std::thread producer([&] {
    offer_status.store(m.offer(epoch_event(0, 2, bed)));
    offer_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(offer_returned.load());  // quota held the producer
  m.finish();  // must wake the parked producer, not wait for it
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!offer_returned.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(offer_returned.load());
  producer.join();
  EXPECT_EQ(offer_status.load(), PushStatus::kClosed);
  // The two admitted events were still folded on the way out.
  EXPECT_EQ(m.stats().events_processed, 2u);
}

}  // namespace
}  // namespace fluxfp::stream
