#include "stream/supervisor.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
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

/// An unsupervised manager fed `events` and finished.
std::unique_ptr<TrackerManager> finished_plain(
    const Bed& bed, std::size_t num_sessions, std::size_t workers,
    const std::vector<FluxEvent>& events) {
  auto m = bed.factory(num_sessions, workers)();
  m->start();
  for (const FluxEvent& e : events) {
    m->offer(e);
  }
  m->finish();
  return m;
}

/// The final image of an unsupervised run — what a supervised run's
/// checkpoint_image() must equal after finish(), however often it crashed.
std::string plain_image(const Bed& bed, std::size_t num_sessions,
                        std::size_t workers,
                        const std::vector<FluxEvent>& events) {
  return encode_checkpoint(
      finished_plain(bed, num_sessions, workers, events)->checkpoint());
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
  EXPECT_THROW(sup.manager()->session(9), std::invalid_argument);
}

TEST(Supervisor, NoCrashesMatchesPlainRunExactly) {
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 5, 31);
  const std::string plain = plain_image(bed, kSessions, 2, events);

  SupervisorConfig cfg;
  cfg.checkpoint_every_epochs = 1;
  Supervisor sup(bed.factory(kSessions, 2), cfg);
  sup.start();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i % 8 == 0) {
      sup.quiesce();  // a pending cut is captured; this offer commits it
    }
    EXPECT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_EQ(sup.checkpoint_image(), plain);
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.restarts, 0u);
  EXPECT_EQ(st.stalls_detected, 0u);
  EXPECT_GT(st.checkpoints, 2u);
  EXPECT_GT(st.checkpoint_bytes, kCheckpointHeaderBytes);
  EXPECT_EQ(st.offers_covered, events.size());
}

TEST(Supervisor, EveryCommitHoldsExactlyTheOffersItCovers) {
  // A cut commits some offers after it was requested. After every commit,
  // the image must be the one a plain manager quiesced after exactly the
  // covered offers would give — the count a replaying caller resumes
  // from.
  const Bed bed;
  constexpr std::size_t kSessions = 3;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 71);
  ASSERT_GT(events.size(), 100u);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SupervisorConfig cfg;
    cfg.checkpoint_every_epochs = 1;
    Supervisor sup(bed.factory(kSessions, workers), cfg);
    sup.start();
    std::map<std::uint64_t, std::string> committed;  // offers -> image
    committed[sup.stats().offers_covered] = sup.checkpoint_image();
    std::uint64_t seen = sup.stats().checkpoints;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i % 16 == 0) {
        sup.quiesce();
      }
      ASSERT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
      const SupervisorStats st = sup.stats();
      if (st.checkpoints != seen) {
        seen = st.checkpoints;
        // The commit lands after its cut, never at it.
        EXPECT_LT(st.offers_covered, i + 1);
        committed[st.offers_covered] = sup.checkpoint_image();
      }
    }
    sup.finish();
    EXPECT_EQ(sup.stats().offers_covered, events.size());
    committed[events.size()] = sup.checkpoint_image();
    EXPECT_GE(committed.size(), 5u) << "workers " << workers;

    auto plain = bed.factory(kSessions, 1)();
    plain->start();
    std::size_t fed = 0;
    for (const auto& [covered, image] : committed) {
      for (; fed < covered; ++fed) {
        plain->offer(events[fed]);
      }
      if (covered == events.size()) {
        plain->finish();  // the final image is post-flush
      }
      EXPECT_EQ(image, encode_checkpoint(plain->checkpoint()))
          << "covered " << covered << " workers " << workers;
    }
  }
}

TEST(Supervisor, InjectedCrashesRestoreBitIdentically) {
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 57);
  ASSERT_GT(events.size(), 60u);
  const std::string plain = plain_image(bed, kSessions, 1, events);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SupervisorConfig cfg;
    cfg.checkpoint_every_epochs = 1;
    cfg.backoff_base = 0.0;  // restart on the next offer
    Supervisor sup(bed.factory(kSessions, workers), cfg);
    sup.start();
    // Kill at arbitrary, awkward points: right after start, mid-window,
    // twice within three offers, with or without a cut pending.
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
      if (i % 8 == 0) {
        sup.quiesce();  // lets cuts commit between the kills
      }
      EXPECT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
    }
    sup.finish();
    EXPECT_EQ(sup.checkpoint_image(), plain) << "workers " << workers;
    const SupervisorStats st = sup.stats();
    EXPECT_EQ(st.crashes_injected, 4u);
    EXPECT_EQ(st.restarts, 4u);
    EXPECT_GT(st.replayed_events, 0u);
  }
}

TEST(Supervisor, RestartFoldsEveryAcceptedEventUnderAQuota) {
  // A restart replays the journal through quota admission. The journal
  // holds only accepted events, so the replay must fold every one of them
  // even where it outruns the tenant's quota. Quiescing every 4 offers
  // keeps the live shard under the quota while the journal between two
  // commits outgrows it.
  const Bed bed;
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kQuota = 8;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 91);
  ASSERT_GT(events.size(), 100u);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const bool crash : {false, true}) {
      SupervisorConfig cfg;
      cfg.checkpoint_every_epochs = 4;
      cfg.backoff_base = 0.0;  // restart on the next offer
      Supervisor sup(
          [&bed, workers] {
            ManagerConfig mc;
            mc.workers = workers;
            mc.tenant_quota = kQuota;
            auto m = std::make_unique<TrackerManager>(mc);
            for (std::uint32_t u = 0; u < kSessions; ++u) {
              m->add_session(u, bed.tracker(1000 + u));  // all in tenant 0
            }
            return m;
          },
          cfg);
      sup.start();
      std::vector<FluxEvent> accepted;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (crash && i == events.size() / 2) {
          sup.inject_crash();
        }
        if (i % 4 == 0) {
          sup.quiesce();
        }
        const PushStatus status = sup.offer(events[i]);
        if (status == PushStatus::kAccepted) {
          accepted.push_back(events[i]);
        } else {
          EXPECT_EQ(status, PushStatus::kShedQuota) << "offer " << i;
        }
      }
      sup.finish();
      const SupervisorStats st = sup.stats();
      EXPECT_EQ(st.restarts, crash ? 1u : 0u);
      if (crash) {
        EXPECT_GT(st.replayed_events, kQuota)
            << "the replay must outgrow the quota";
      }
      EXPECT_EQ(sup.checkpoint_image(),
                plain_image(bed, kSessions, 1, accepted))
          << "workers " << workers << " crash " << crash;
    }
  }
}

TEST(Supervisor, FaultPlanCrashEveryNEpochsSoak) {
  // The CI soak: a fault-injected stream (transport drops/dups/stragglers)
  // into a supervised service whose shard is killed every few epochs, with
  // real backoff so events are deferred and replayed. 2 sessions x 100
  // rounds = 200 epochs end to end; the final image must still be
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

  const auto plain_manager = finished_plain(bed, kSessions, 2, events);

  SupervisorConfig cfg;
  cfg.checkpoint_every_epochs = 2;
  cfg.backoff_base = 0.4;  // virtual seconds: defers a few events per kill
  cfg.backoff_factor = 2.0;
  cfg.max_restarts = 3;
  cfg.fault.crash_every_epochs = 10;
  Supervisor sup(bed.factory(kSessions, 2), cfg);
  sup.start();
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Keeps each cut within a few epochs of the workers, so the fault plan
    // (judged on a cut's epochs) meets a commit between two kill points.
    if (i % 16 == 0) {
      sup.quiesce();
    }
    EXPECT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_FALSE(sup.failed());

  const SupervisorStats st = sup.stats();
  EXPECT_GT(st.crashes_injected, 10u);  // ~200 epochs / every 10
  EXPECT_EQ(st.restarts, st.crashes_injected);
  EXPECT_GT(st.events_deferred, 0u);   // backoff deferred live traffic
  EXPECT_GT(st.replayed_events, 0u);
  EXPECT_EQ(st.sessions_shed, 0u);
  std::uint64_t epochs = 0;
  ManagerCheckpoint bare;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    epochs += sup.manager()->session(u).stats().epochs_fired;
    // Every epoch, from a bare tracker fed the same faulty per-session
    // stream: finite, and ending in the state the plain run's image holds.
    StreamTracker t = bed.tracker(1000 + u);
    const auto check = [](const std::vector<EpochResult>& results) {
      for (const EpochResult& r : results) {
        EXPECT_TRUE(std::isfinite(r.estimates[0].x));
        EXPECT_TRUE(std::isfinite(r.estimates[0].y));
      }
    };
    for (const FluxEvent& e : events) {
      if (e.user == u) {
        check(t.on_event(e));
      }
    }
    check(t.flush());
    bare.sessions.push_back(
        {u, {bed.sniffers.begin(), bed.sniffers.end()}, t.save_state()});
  }
  EXPECT_EQ(epochs, static_cast<std::uint64_t>(kSessions * kRounds));
  // The image is a pure function of the accepted events: a dozen
  // kill/restore cycles leave no trace in it.
  const std::string plain = encode_checkpoint(plain_manager->checkpoint());
  EXPECT_EQ(encode_checkpoint(bare), plain);
  EXPECT_EQ(sup.checkpoint_image(), plain);
}

TEST(Supervisor, FailedCheckpointWriteKeepsThePreviousCheckpoint) {
  // A commit whose file write fails (here: a file-size limit below the
  // image size) must leave the last good file on disk and the in-memory
  // image and journal at the previous cut, so a crash afterwards still
  // recovers exactly.
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(1, 6, 61);
  ASSERT_GT(events.size(), 40u);
  const auto plain_manager = finished_plain(bed, 1, 1, events);

  const std::string path = ::testing::TempDir() + "failed_write.ckpt";
  SupervisorConfig cfg;
  cfg.checkpoint_every_epochs = 1;
  cfg.backoff_base = 0.0;
  cfg.checkpoint_path = path;
  Supervisor sup(bed.factory(1, 1), cfg);
  sup.start();
  const std::string baseline = sup.checkpoint_image();
  ASSERT_GT(baseline.size(), 512u);

  // Over-limit writes fail with EFBIG instead of raising SIGXFSZ.
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit capped = old_limit;
  capped.rlim_cur = 512;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  std::size_t next = 0;
  bool threw = false;
  for (; next < events.size() && !threw; ++next) {
    sup.quiesce();  // a pending cut is complete: this offer commits it
    try {
      sup.offer(events[next]);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);
  ASSERT_TRUE(threw);
  EXPECT_EQ(sup.stats().checkpoints, 1u);  // the baseline only

  std::ifstream file(path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, baseline);
  EXPECT_EQ(sup.checkpoint_image(), baseline);

  sup.inject_crash();
  for (; next < events.size(); ++next) {
    EXPECT_EQ(sup.offer(events[next]), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_EQ(sup.stats().restarts, 1u);
  EXPECT_EQ(sup.checkpoint_image(),
            encode_checkpoint(plain_manager->checkpoint()));
}

TEST(Supervisor, GivesUpAfterMaxRestartsAndShedsSessions) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(2, 6, 17);

  SupervisorConfig cfg;
  cfg.backoff_base = 0.0;
  cfg.max_restarts = 2;
  Supervisor sup(bed.factory(2, 1), cfg);
  sup.start();
  // A kill after every offer: no checkpoint commits in between, so the
  // third consecutive failure exceeds max_restarts.
  bool saw_closed = false;
  for (const FluxEvent& e : events) {
    if (sup.offer(e) == PushStatus::kClosed) {
      saw_closed = true;
      break;
    }
    sup.inject_crash();
  }
  EXPECT_TRUE(saw_closed);
  EXPECT_TRUE(sup.failed());
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.crashes_injected, 3u);
  EXPECT_EQ(st.restarts, 2u);
  EXPECT_EQ(st.sessions_shed, 2u);
  // Failed supervisors keep the last committed image readable.
  sup.finish();
  ManagerCheckpoint committed;
  std::istringstream image(sup.checkpoint_image());
  EXPECT_FALSE(read_checkpoint(image, committed).has_value());
  EXPECT_EQ(committed.sessions.size(), 2u);
}

TEST(Supervisor, DownShardRejectsUnknownUsersWhileDeferring) {
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(1, 4, 23);
  SupervisorConfig cfg;
  cfg.checkpoint_every_epochs = 0;  // only the baseline image
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
  cfg.checkpoint_every_epochs = 2;
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
