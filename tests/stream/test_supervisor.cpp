#include "stream/supervisor.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/deployment.hpp"
#include "sim/faults.hpp"
#include "sim/scenario.hpp"
#include "stream/checkpoint.hpp"
#include "stream/emit.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

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

/// The events `image` covers: its sessions' events_taken sum, each session
/// covering its own first events.
std::uint64_t covered(const std::string& image) {
  ManagerCheckpoint cp;
  std::istringstream is(image);
  EXPECT_FALSE(read_checkpoint(is, cp).has_value());
  std::uint64_t events = 0;
  for (const SessionCheckpoint& sc : cp.sessions) {
    events += events_taken(sc.state.stats);
  }
  return events;
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
  const Bed bed;
  SupervisorConfig never_cut;
  never_cut.checkpoint_every_epochs = 0;
  EXPECT_THROW(Supervisor(bed.factory(1, 1), never_cut),
               std::invalid_argument);

  Supervisor null_factory([] { return std::unique_ptr<TrackerManager>(); },
                          {});
  EXPECT_THROW(null_factory.start(), std::invalid_argument);

  Supervisor sup(bed.factory(1, 1), {});
  EXPECT_EQ(sup.offer({0.0, 0, 0, 0, 1.0}), PushStatus::kClosed);
  sup.start();
  EXPECT_THROW(sup.start(), std::logic_error);
  EXPECT_EQ(sup.manager()->users().size(), 1u);
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
      sup.quiesce();  // the workers cut; the next offer commits
    }
    EXPECT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
  }
  sup.finish();
  EXPECT_EQ(sup.checkpoint_image(), plain);
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.restarts, 0u);
  EXPECT_GT(st.checkpoints, 2u);
  EXPECT_GT(st.checkpoint_bytes, kCheckpointHeaderBytes);
  EXPECT_EQ(covered(sup.checkpoint_image()), events.size());
}

TEST(Supervisor, EveryCommittedSessionHoldsExactlyTheEventsItTook) {
  // Workers cut their own sessions at their own epoch boundaries, so a
  // committed image is session-wise: every session's record must be the
  // one a bare tracker holds after exactly that session's first
  // events_taken events. Crashes after every third commit restore from the
  // cuts and re-fold the journals, so a cut or a journal that is one run
  // off shows in the images committed after it.
  const Bed bed;
  constexpr std::size_t kSessions = 3;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 71);
  ASSERT_GT(events.size(), 100u);
  // want[u][k]: session u's record after its first k events.
  std::vector<std::vector<std::string>> want(kSessions);
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    StreamTracker t = bed.tracker(1000 + u);
    const auto record = [&] {
      return encode_session_record(
          {u, {bed.sniffers.begin(), bed.sniffers.end()}, t.save_state()});
    };
    want[u].push_back(record());
    for (const FluxEvent& e : events) {
      if (e.user == u) {
        t.on_event(e);
        want[u].push_back(record());
      }
    }
  }
  const std::string plain = plain_image(bed, kSessions, 1, events);
  const std::string path = ::testing::TempDir() + "session_wise.ckpt";

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SupervisorConfig cfg;
    cfg.checkpoint_every_epochs = 1;
    cfg.checkpoint_path = path;
    Supervisor sup(bed.factory(kSessions, workers), cfg);
    sup.start();
    std::uint64_t seen = sup.stats().checkpoints;
    std::size_t commits = 0;
    std::size_t crashes = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i % 8 == 0) {
        sup.quiesce();  // the workers cut; the next offer commits
      }
      ASSERT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
      if (sup.stats().checkpoints == seen) {
        continue;
      }
      seen = sup.stats().checkpoints;
      ++commits;
      std::ifstream file(path, std::ios::binary);
      ManagerCheckpoint committed;
      ASSERT_FALSE(read_checkpoint(file, committed).has_value());
      ASSERT_EQ(committed.sessions.size(), kSessions);
      for (const SessionCheckpoint& sc : committed.sessions) {
        const std::uint64_t taken = events_taken(sc.state.stats);
        ASSERT_LT(taken, want[sc.user].size());
        EXPECT_TRUE(encode_session_record(sc) == want[sc.user][taken])
            << "session " << sc.user << " after " << taken
            << " events, commit " << commits << " workers " << workers;
      }
      if (commits % 3 == 0) {
        sup.inject_crash();
        ++crashes;
      }
    }
    sup.finish();
    EXPECT_GE(commits, 6u) << "workers " << workers;
    EXPECT_EQ(sup.stats().restarts, crashes);
    EXPECT_EQ(sup.checkpoint_image(), plain) << "workers " << workers;
  }
  std::remove(path.c_str());
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
    Supervisor sup(bed.factory(kSessions, workers), cfg);
    sup.start();
    // Kill at arbitrary, awkward points: right after start, mid-window,
    // twice within three offers, with or without a commit between.
    const std::size_t kills[] = {1, events.size() / 3,
                                 events.size() / 3 + 2,
                                 events.size() - 3};
    std::size_t next_kill = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (next_kill < 4 && i == kills[next_kill]) {
        sup.inject_crash();
        // Restarted before inject_crash() returns: the sessions already
        // hold every event offered so far.
        sup.quiesce();
        std::uint64_t taken = 0;
        for (const std::uint32_t u : sup.manager()->users()) {
          taken += events_taken(sup.manager()->session(u).stats());
        }
        EXPECT_EQ(taken, i) << "kill " << next_kill << " workers " << workers;
        ++next_kill;
      }
      if (i % 8 == 0) {
        sup.quiesce();  // lets the workers cut between the kills
      }
      EXPECT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
    }
    sup.finish();
    EXPECT_EQ(sup.checkpoint_image(), plain) << "workers " << workers;
    const SupervisorStats st = sup.stats();
    EXPECT_EQ(st.restarts, 4u);
    EXPECT_GT(st.replayed_events, 0u);
  }
}

TEST(Supervisor, RestartFoldsEveryAcceptedEventUnderAQuota) {
  // A restart re-folds the workers' journals. They hold only accepted
  // events and the re-fold admits nothing, so it must fold every one of
  // them even where a journal outgrows the tenant's quota. Quiescing every
  // 4 offers keeps the live shard under the quota while the journals
  // between two cuts outgrow it.
  const Bed bed;
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kQuota = 8;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 91);
  ASSERT_GT(events.size(), 100u);
  // Each session here fires an epoch every 10 events, so one worker with
  // all 4 sessions cuts every 40 events, and offer N/2 lands on a cut,
  // with nothing journaled; 20 offers later its journal holds half a cut
  // interval.
  const std::size_t crash_at = events.size() / 2 + 20;

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const bool crash : {false, true}) {
      SupervisorConfig cfg;
      cfg.checkpoint_every_epochs = 4;
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
        if (crash && i == crash_at) {
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

TEST(Supervisor, CrashAfterEveryFifthCommitSoak) {
  // The CI soak: a fault-injected stream (transport drops/dups/stragglers)
  // into a supervised service whose shard is killed after every fifth
  // commit, with events queued and journals to re-fold. 2 sessions x 100
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
  Supervisor sup(bed.factory(kSessions, 2), cfg);
  sup.start();
  std::uint64_t kill_at = 5;  // commits, the baseline included
  std::uint64_t kills = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Lets the workers' cuts reach an offer, so commits keep coming
    // between two kills.
    if (i % 16 == 0) {
      sup.quiesce();
    }
    EXPECT_EQ(sup.offer(events[i]), PushStatus::kAccepted);
    if (sup.stats().checkpoints >= kill_at) {
      sup.inject_crash();
      ++kills;
      kill_at += 5;
    }
  }
  sup.finish();

  const SupervisorStats st = sup.stats();
  EXPECT_GT(kills, 10u);  // ~80 commits, every fifth a kill
  EXPECT_EQ(st.restarts, kills);
  EXPECT_GT(st.replayed_events, 0u);
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
  // Commits whose file write fails (here: a file-size limit below the
  // image size) must leave the last good file on disk and count no commit.
  // Each worker cut is tried once, so the failures count the cuts, not the
  // offers, and every offer is admitted all the same. The workers' cuts
  // and journals in memory carry on, so a crash afterwards still recovers
  // exactly, and the next cut writes again.
  const Bed bed;
  const std::vector<FluxEvent> events = bed.merged_stream(1, 6, 61);
  ASSERT_GT(events.size(), 40u);
  const auto plain_manager = finished_plain(bed, 1, 1, events);

  const std::string path = ::testing::TempDir() + "failed_write.ckpt";
  SupervisorConfig cfg;
  cfg.checkpoint_every_epochs = 1;
  cfg.checkpoint_path = path;
  Supervisor sup(bed.factory(1, 1), cfg);
  sup.start();
  const std::string baseline = sup.checkpoint_image();
  ASSERT_GT(baseline.size(), 512u);
  // No file to write: fed the same offers after the same quiesces, it
  // sees the same cuts and commits each one.
  SupervisorConfig twin_cfg;
  twin_cfg.checkpoint_every_epochs = cfg.checkpoint_every_epochs;
  Supervisor twin(bed.factory(1, 1), twin_cfg);
  twin.start();

#if defined(FLUXFP_OBS_ENABLED)
  obs::Counter& write_failures = obs::MetricsRegistry::global().counter(
      "fluxfp_supervisor_checkpoint_write_failures_total", "",
      obs::Determinism::kScheduling);
  const std::uint64_t failures0 = write_failures.value();
#endif
  // Over-limit writes fail with EFBIG instead of raising SIGXFSZ.
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit capped = old_limit;
  capped.rlim_cur = 512;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  std::size_t next = 0;
  for (; next < events.size() / 2; ++next) {
    sup.quiesce();  // every earlier fold's cut reaches this offer
    twin.quiesce();
    EXPECT_EQ(sup.offer(events[next]), PushStatus::kAccepted);
    twin.offer(events[next]);
  }
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);
  const std::uint64_t cuts = twin.stats().checkpoints - 1;  // no baseline
  ASSERT_GT(cuts, 1u);
  EXPECT_EQ(sup.stats().checkpoint_write_failures, cuts);
  EXPECT_EQ(sup.stats().checkpoints, 1u);  // the baseline only
#if defined(FLUXFP_OBS_ENABLED)
  EXPECT_EQ(write_failures.value() - failures0, cuts);
#endif

  std::ifstream file(path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, baseline);
  EXPECT_NE(sup.checkpoint_image(), baseline);  // the cuts moved on

  sup.inject_crash();
  for (; next < events.size(); ++next) {
    sup.quiesce();
    EXPECT_EQ(sup.offer(events[next]), PushStatus::kAccepted);
  }
  EXPECT_GT(sup.stats().checkpoints, 1u);  // the next cuts wrote again
  EXPECT_EQ(sup.stats().checkpoint_write_failures, cuts);
  sup.finish();
  twin.finish();
  EXPECT_EQ(sup.stats().restarts, 1u);
  EXPECT_EQ(sup.checkpoint_image(),
            encode_checkpoint(plain_manager->checkpoint()));
}

TEST(Supervisor, KillAfterEveryOfferRestartsEveryTime) {
  // A kill after every offer, at the default cadence: no worker cuts
  // between two kills, so every restart starts from the epoch-zero
  // baseline and re-folds every event offered so far. However often the
  // shard dies, each kill restarts it and the run ends in the image of a
  // run that never crashed.
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 17);
  const std::string plain = plain_image(bed, kSessions, 1, events);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    Supervisor sup(bed.factory(kSessions, workers), {});
    sup.start();
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(sup.offer(events[i]), PushStatus::kAccepted)
          << "offer " << i << " workers " << workers;
      sup.inject_crash();
    }
    const SupervisorStats st = sup.stats();
    EXPECT_EQ(st.checkpoints, 1u) << "a commit fell between two kills";
    EXPECT_EQ(st.restarts, events.size());
    EXPECT_EQ(st.replayed_events, events.size() * (events.size() + 1) / 2);
    sup.finish();
    EXPECT_EQ(sup.checkpoint_image(), plain) << "workers " << workers;
  }
}

TEST(Supervisor, LateEventsAloneCutAtTheJournalBound) {
  // Late events fire no epoch, so only the journal bound makes a worker
  // cut while they stream in: 70,000 of them must commit an image, and a
  // crash afterwards must restore exactly from it, re-folding a journal
  // the bound kept short.
  const Bed bed;
  std::vector<FluxEvent> events = bed.session_events(0, 6, 43);
  ASSERT_FALSE(events.empty());
  const std::size_t on_time = events.size();
  // A straggler for epoch 0, which has fired, at the newest time seen so
  // far, so it lapses no open window either.
  const FluxEvent late{events.back().time, 0, 0,
                       static_cast<std::uint32_t>(bed.sniffers[0]), 1.0};
  events.insert(events.end(), 70000, late);
  const std::string plain = plain_image(bed, 1, 1, events);

  Supervisor sup(bed.factory(1, 1), {});
  sup.start();
  const std::span<const FluxEvent> all(events);
  constexpr std::size_t kSpan = 64;
  // All but the last event, in spans; then the last one commits the cut.
  for (std::size_t at = 0; at + 1 < all.size(); at += kSpan) {
    const auto span = all.subspan(at, std::min(kSpan, all.size() - 1 - at));
    std::vector<PushStatus> status(span.size());
    sup.offer(span, status).wait();
  }
  sup.quiesce();
  EXPECT_EQ(sup.offer(events.back()), PushStatus::kAccepted);
  EXPECT_EQ(sup.stats().checkpoints, 2u);  // the baseline and the bound
  EXPECT_GE(covered(sup.checkpoint_image()),
            TrackerManager::kMaxJournalEvents);

  sup.inject_crash();
  const SupervisorStats st = sup.stats();
  EXPECT_EQ(st.restarts, 1u);
  EXPECT_LT(st.replayed_events, TrackerManager::kMaxJournalEvents);
  sup.finish();
  const StreamStats& session = sup.manager()->session(0).stats();
  EXPECT_EQ(session.late, 70000u);
  EXPECT_EQ(session.events, on_time);
  EXPECT_EQ(sup.checkpoint_image(), plain);
}

TEST(Supervisor, CrashWhileASpanWaitsForRoomReleasesItAndReplays) {
  // A crash while a span waits for room: the restart quiesces the shard,
  // which drains the queues and releases the wait, and the span's events,
  // folded and journaled, re-fold.
  const Bed bed;
  constexpr std::size_t kSessions = 2;
  constexpr std::size_t kSpan = 24;
  const std::vector<FluxEvent> events = bed.merged_stream(kSessions, 6, 29);
  const std::string plain = plain_image(bed, kSessions, 1, events);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SupervisorConfig cfg;
    cfg.checkpoint_every_epochs = 4;
    Supervisor sup(
        [&bed, workers] {
          ManagerConfig mc;
          mc.workers = workers;
          mc.queue_capacity = 2;  // every span overruns its queues
          auto m = std::make_unique<TrackerManager>(mc);
          for (std::uint32_t u = 0; u < kSessions; ++u) {
            m->add_session(u, bed.tracker(1000 + u));
          }
          return m;
        },
        cfg);
    sup.start();
    const std::span<const FluxEvent> all(events);
    std::size_t crashes = 0;
    for (std::size_t at = 0, k = 0; at < all.size(); at += kSpan, ++k) {
      const auto span = all.subspan(at, std::min(kSpan, all.size() - at));
      std::vector<PushStatus> status(span.size());
      const RoomWait room = sup.offer(span, status);
      for (const PushStatus st : status) {
        EXPECT_EQ(st, PushStatus::kAccepted);
      }
      if (k % 3 == 1) {
        sup.inject_crash();  // before the wait
        ++crashes;
      }
      room.wait();  // must return
    }
    sup.finish();
    EXPECT_EQ(sup.checkpoint_image(), plain) << "workers " << workers;
    EXPECT_EQ(sup.stats().restarts, crashes);
    EXPECT_EQ(covered(sup.checkpoint_image()), events.size());
  }
}

}  // namespace
}  // namespace fluxfp::stream
