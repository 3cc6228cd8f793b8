#include "stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/deployment.hpp"
#include "net/flux.hpp"
#include "sim/scenario.hpp"
#include "stream/emit.hpp"
#include "stream/manager.hpp"

namespace fluxfp::stream {
namespace {

/// Same small deployment as the manager tests: an 8x8 perturbed grid with
/// every 7th node sniffed and cheap SMC settings.
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

std::unique_ptr<TrackerManager> make_manager(const Bed& bed,
                                             std::size_t num_sessions,
                                             std::size_t workers) {
  ManagerConfig mc;
  mc.workers = workers;
  auto m = std::make_unique<TrackerManager>(mc);
  for (std::uint32_t u = 0; u < num_sessions; ++u) {
    m->add_session(u, bed.tracker(1000 + u));
  }
  return m;
}

/// Encoded images keyed by how many events had been offered at the
/// quiesced cut. A session's state holds its particles, weights and RNG
/// position, so an epoch that fired differently shows in every later
/// image.
using Images = std::map<std::size_t, std::string>;

/// Offers events[from, to) to a running manager, snapshotting it before
/// each probe index in (from, to).
Images offer_probing(TrackerManager& m, const std::vector<FluxEvent>& events,
                     std::size_t from, std::size_t to,
                     const std::vector<std::size_t>& probes) {
  Images images;
  for (std::size_t i = from; i < to; ++i) {
    if (i > from && std::find(probes.begin(), probes.end(), i) !=
                        probes.end()) {
      images[i] = encode_checkpoint(m.checkpoint());
    }
    m.offer(events[i]);
  }
  return images;
}

std::optional<CheckpointError> decode(const std::string& image,
                                      ManagerCheckpoint& out) {
  std::istringstream is(image);
  return read_checkpoint(is, out);
}

std::optional<CheckpointError> decode(const std::string& image) {
  ManagerCheckpoint out;
  return decode(image, out);
}

/// Round-trips a checkpoint through encoded FLUXFPC1 bytes.
ManagerCheckpoint through_bytes(const ManagerCheckpoint& cp) {
  ManagerCheckpoint out;
  const auto err = decode(encode_checkpoint(cp), out);
  EXPECT_FALSE(err.has_value()) << (err ? err->to_string() : "");
  return out;
}

/// A valid encoded image to corrupt.
std::string valid_image(const Bed& bed) {
  auto m = make_manager(bed, 2, 1);
  m->start();
  for (const FluxEvent& e : bed.session_events(0, 3, 7)) {
    m->offer(e);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();
  return encode_checkpoint(cp);
}

TEST(Checkpoint, RoundTripPreservesEveryFieldNaNExactly) {
  const Bed bed;
  auto m = make_manager(bed, 2, 2);
  m->start();
  // Stop mid-stream so open windows (with missing = NaN slots) exist.
  const std::vector<FluxEvent> events = bed.session_events(0, 4, 11);
  for (std::size_t i = 0; i + 3 < events.size(); ++i) {
    m->offer(events[i]);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();

  // Re-encoding the decoded snapshot reproduces the image byte for byte:
  // every serialized field round-trips, f64s bit-exactly (NaN payloads of
  // missing slots included, which operator== could not compare).
  const std::string image = encode_checkpoint(cp);
  const ManagerCheckpoint rt = through_bytes(cp);
  EXPECT_EQ(encode_checkpoint(rt), image);
  std::size_t unseen = 0;
  for (const SessionCheckpoint& s : rt.sessions) {
    for (const WindowState& w : s.state.open) {
      ASSERT_EQ(w.readings.size(), w.seen.size());
      for (std::size_t r = 0; r < w.readings.size(); ++r) {
        if (!w.seen[r]) {
          ++unseen;
          EXPECT_TRUE(std::isnan(w.readings[r]));
        }
      }
    }
  }
  EXPECT_GT(unseen, 0u);
}

TEST(Checkpoint, KillAtArbitraryEventRestoreIsBitIdentical) {
  const Bed bed;
  constexpr std::size_t kSessions = 3;
  std::vector<std::vector<FluxEvent>> streams;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    streams.push_back(bed.session_events(u, 6, 77 + u));
  }
  const std::vector<FluxEvent> merged =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));
  const std::size_t n = merged.size();
  ASSERT_GT(n, 40u);

  // Kill the service at arbitrary event cuts — early, mid-window, late —
  // and restore THROUGH THE SERIALIZED BYTES under 1 and 4 workers. The
  // image at the kill, at every later probe and after finish() must be
  // byte-identical to the uninterrupted 1-worker run's at the same point.
  const std::vector<std::size_t> cuts = {1, n / 3, n / 2, n - 2};
  const std::vector<std::size_t> probes = {n / 4, 5 * n / 12, 2 * n / 3,
                                           n - 1};
  std::vector<std::size_t> all = cuts;
  all.insert(all.end(), probes.begin(), probes.end());
  auto uninterrupted = make_manager(bed, kSessions, 1);
  uninterrupted->start();
  const Images baseline = offer_probing(*uninterrupted, merged, 0, n, all);
  uninterrupted->finish();
  const std::string baseline_final =
      encode_checkpoint(uninterrupted->checkpoint());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t cut : cuts) {
      auto first = make_manager(bed, kSessions, workers);
      first->start();
      offer_probing(*first, merged, 0, cut, {});
      const ManagerCheckpoint cp = first->checkpoint();
      EXPECT_EQ(encode_checkpoint(cp), baseline.at(cut))
          << "cut " << cut << " workers " << workers;
      first.reset();  // the kill: everything in memory is gone

      auto second = make_manager(bed, kSessions, workers);
      second->restore(through_bytes(cp));
      second->start();
      const Images resumed = offer_probing(*second, merged, cut, n, probes);
      second->finish();
      EXPECT_FALSE(resumed.empty());
      for (const auto& [at, image] : resumed) {
        EXPECT_EQ(image, baseline.at(at))
            << "probe " << at << " cut " << cut << " workers " << workers;
      }
      EXPECT_EQ(encode_checkpoint(second->checkpoint()), baseline_final)
          << "cut " << cut << " workers " << workers;
    }
  }
}

TEST(Checkpoint, CutMatchesQuiescedImageAtAnyOffer) {
  // A cut requested after k offers, while offers continue, assembles the
  // image of a manager quiesced after exactly those k offers: each worker
  // captures its sessions at its marker, and the queues are FIFO.
  const Bed bed;
  constexpr std::size_t kSessions = 3;
  std::vector<std::vector<FluxEvent>> streams;
  for (std::uint32_t u = 0; u < kSessions; ++u) {
    streams.push_back(bed.session_events(u, 6, 91 + u));
  }
  const std::vector<FluxEvent> merged =
      merge_by_time(std::span<const std::vector<FluxEvent>>(streams));
  const std::size_t n = merged.size();
  ASSERT_GT(n, 40u);
  const std::vector<std::size_t> cuts = {1, n / 3, 2 * n / 3, n - 1};
  auto reference = make_manager(bed, kSessions, 1);
  reference->start();
  const Images want = offer_probing(*reference, merged, 0, n, cuts);
  reference->finish();

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t k : cuts) {
      auto m = make_manager(bed, kSessions, workers);
      EXPECT_THROW(m->request_cut(), std::logic_error);  // not running
      m->start();
      EXPECT_FALSE(m->take_cut(true).has_value());  // none pending
      std::optional<ManagerCut> cut;
      for (std::size_t i = 0; i < n; ++i) {
        if (i == k) {
          m->request_cut();
          EXPECT_THROW(m->request_cut(), std::logic_error);  // one at a time
        } else if (i > k && !cut) {
          cut = m->take_cut(false);
        }
        m->offer(merged[i]);
      }
      if (!cut) {
        cut = m->take_cut(true);
      }
      ASSERT_TRUE(cut.has_value());
      const std::string image = assemble_checkpoint(cut->records);
      EXPECT_EQ(image, want.at(k)) << "cut " << k << " workers " << workers;
      ManagerCheckpoint decoded;
      ASSERT_FALSE(decode(image, decoded).has_value());
      std::uint64_t epochs = 0;
      for (const SessionCheckpoint& sc : decoded.sessions) {
        epochs += sc.state.stats.epochs_fired;
      }
      EXPECT_EQ(cut->epochs, epochs) << "cut " << k << " workers " << workers;

      // A cut of an idle service: every worker is parked on an empty
      // queue and must wake for its marker alone.
      m->quiesce();
      m->request_cut();
      const std::optional<ManagerCut> idle = m->take_cut(true);
      ASSERT_TRUE(idle.has_value());
      EXPECT_EQ(assemble_checkpoint(idle->records),
                encode_checkpoint(m->checkpoint()));
      EXPECT_FALSE(m->take_cut(true).has_value());  // taken already
      m->finish();
    }
  }
}

TEST(Checkpoint, HeaderCrcIsStandardCrc32) {
  // The header CRC is the IEEE 802.3 CRC-32 (zlib's), checked here against
  // a bitwise definition of the polynomial rather than against itself.
  const auto reference = [](const char* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= static_cast<unsigned char>(p[i]);
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  const std::string check = "123456789";
  ASSERT_EQ(reference(check.data(), check.size()), 0xCBF43926u);

  const Bed bed;
  for (const std::string& image :
       {valid_image(bed), encode_checkpoint(ManagerCheckpoint{})}) {
    ASSERT_GE(image.size(), kCheckpointHeaderBytes);
    std::uint32_t header_crc = 0;
    std::memcpy(&header_crc, image.data() + 12, sizeof(header_crc));
    EXPECT_EQ(header_crc,
              reference(image.data() + kCheckpointHeaderBytes,
                        image.size() - kCheckpointHeaderBytes));
  }
}

TEST(Checkpoint, RestoreValidatesDeploymentAndLifecycle) {
  const Bed bed;
  auto m = make_manager(bed, 2, 1);
  m->start();
  for (const FluxEvent& e : bed.session_events(0, 3, 5)) {
    m->offer(e);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();

  // Restore after start() is a lifecycle error.
  auto running = make_manager(bed, 2, 1);
  running->start();
  EXPECT_THROW(running->restore(cp), std::logic_error);
  running->finish();

  // Session-count mismatch.
  auto fewer = make_manager(bed, 1, 1);
  EXPECT_THROW(fewer->restore(cp), std::invalid_argument);

  // Unknown user in the image.
  ManagerCheckpoint renamed = cp;
  renamed.sessions[0].user = 99;
  auto fresh = make_manager(bed, 2, 1);
  const std::string untouched = encode_checkpoint(fresh->checkpoint());
  EXPECT_THROW(fresh->restore(renamed), std::invalid_argument);

  // A checkpoint taken against a different sniffer deployment.
  ManagerCheckpoint reshaped = cp;
  reshaped.sessions[0].sniffer_nodes.push_back(1);
  EXPECT_THROW(fresh->restore(reshaped), std::invalid_argument);

  // A session tracking one more user than its registered tracker. The
  // second session carries it, so a per-session check would already have
  // applied the first.
  ManagerCheckpoint widened = cp;
  widened.sessions[1].state.smc.users.push_back(
      widened.sessions[1].state.smc.users[0]);
  EXPECT_THROW(fresh->restore(widened), std::invalid_argument);

  // A particle the filter cannot produce, in the second session: only the
  // tracker's own restore refuses it, after the first session applied.
  ManagerCheckpoint poisoned = cp;
  poisoned.sessions[1].state.smc.users[0].particles[0].position.x =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(fresh->restore(poisoned), std::invalid_argument);

  // Restore is all-or-nothing: the failed restores above applied
  // nothing, and a clean restore still works.
  EXPECT_EQ(encode_checkpoint(fresh->checkpoint()), untouched);
  fresh->restore(cp);
  // checkpoint() needs no running service: before start() and after
  // finish() it snapshots without quiescing.
  EXPECT_EQ(fresh->checkpoint().sessions.size(), 2u);
  fresh->start();
  fresh->finish();
  EXPECT_EQ(fresh->checkpoint().sessions.size(), 2u);
}

TEST(CheckpointError, TruncatedHeaderIsTyped) {
  const Bed bed;
  const std::string image = valid_image(bed);
  const auto err = decode(image.substr(0, 10));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kTruncatedHeader);
  EXPECT_EQ(err->offset, 10u);
  EXPECT_NE(err->to_string().find("offset 10"), std::string::npos);
}

TEST(CheckpointError, BadMagicIsTyped) {
  const Bed bed;
  std::string image = valid_image(bed);
  image[0] = 'X';
  const auto err = decode(image);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kBadMagic);
  EXPECT_EQ(err->offset, 0u);
}

TEST(CheckpointError, BadVersionIsTyped) {
  const Bed bed;
  // Version 1 (the layout with per-epoch wall-clock telemetry) has no
  // reader; it is refused like an unknown future version.
  for (const char version : {1, 9}) {
    std::string image = valid_image(bed);
    image[8] = version;  // version word little end
    const auto err = decode(image);
    ASSERT_TRUE(err.has_value()) << "version " << int{version};
    EXPECT_EQ(err->kind, CheckpointError::Kind::kBadVersion);
    EXPECT_EQ(err->offset, 8u);
  }
}

TEST(CheckpointError, TruncatedPayloadIsTyped) {
  const Bed bed;
  const std::string image = valid_image(bed);
  const auto err = decode(image.substr(0, image.size() - 7));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kTruncatedPayload);
}

TEST(CheckpointError, CorruptPayloadFailsTheCrc) {
  const Bed bed;
  std::string image = valid_image(bed);
  // Flip one payload bit; the CRC must catch it (torn write / bit rot).
  image[kCheckpointHeaderBytes + image.size() / 2] ^= 0x40;
  const auto err = decode(image);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kCrcMismatch);
  EXPECT_EQ(err->offset, 12u);
}

TEST(CheckpointError, HugePayloadLengthDoesNotAllocate) {
  // A corrupt header length must not make the reader allocate the claimed
  // size; it reads what exists and reports truncation.
  std::string image(kCheckpointHeaderBytes, '\0');
  std::memcpy(image.data(), kCheckpointMagic, 8);
  const std::uint32_t version = kCheckpointVersion;
  std::memcpy(image.data() + 8, &version, 4);
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(image.data() + 16, &huge, 8);
  const auto err = decode(image);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kTruncatedPayload);
}

TEST(CheckpointError, UnopenableFileIsBadStream) {
  ManagerCheckpoint out;
  const auto err =
      read_checkpoint_file("/nonexistent/dir/fluxfp.ckpt", out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, CheckpointError::Kind::kBadStream);
}

TEST(Checkpoint, FileRoundTripViaTempDir) {
  const Bed bed;
  auto m = make_manager(bed, 2, 1);
  m->start();
  for (const FluxEvent& e : bed.session_events(1, 3, 9)) {
    m->offer(e);
  }
  const ManagerCheckpoint cp = m->checkpoint();
  m->finish();
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + info->name() + ".ckpt";
  const std::string image = encode_checkpoint(cp);
  write_checkpoint_file(path, image);
  ManagerCheckpoint rt;
  const auto err = read_checkpoint_file(path, rt);
  EXPECT_FALSE(err.has_value()) << (err ? err->to_string() : "");
  EXPECT_EQ(encode_checkpoint(rt), image);
  // The temporary file was renamed over the target, not left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(StreamTracker, SaveRestoreMidStreamMatchesUninterrupted) {
  // Tracker-level bit-identity: snapshot mid-stream, rebuild with the
  // same construction inputs, restore, continue — every subsequent fold
  // must match the tracker that never stopped.
  const Bed bed;
  const std::vector<FluxEvent> events = bed.session_events(0, 6, 21);
  ASSERT_GT(events.size(), 20u);

  StreamTracker continuous = bed.tracker(42);
  StreamTracker prefix = bed.tracker(42);
  const std::size_t cut = events.size() / 2;
  std::vector<EpochResult> want;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (EpochResult& r : continuous.on_event(events[i])) {
      if (i >= cut) {
        want.push_back(std::move(r));
      }
    }
    if (i < cut) {
      prefix.on_event(events[i]);
    }
  }
  for (EpochResult& r : continuous.flush()) {
    want.push_back(std::move(r));
  }

  StreamTracker resumed = bed.tracker(42);
  resumed.restore_state(prefix.save_state());
  std::vector<EpochResult> got;
  for (std::size_t i = cut; i < events.size(); ++i) {
    for (EpochResult& r : resumed.on_event(events[i])) {
      got.push_back(std::move(r));
    }
  }
  for (EpochResult& r : resumed.flush()) {
    got.push_back(std::move(r));
  }

  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].epoch, want[i].epoch);
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].estimates[0].x, want[i].estimates[0].x);
    EXPECT_EQ(got[i].estimates[0].y, want[i].estimates[0].y);
  }
  EXPECT_EQ(resumed.stats().epochs_fired, continuous.stats().epochs_fired);
}

TEST(StreamTracker, RestoreRejectsMalformedStateWithoutMutating) {
  const Bed bed;
  StreamTracker t = bed.tracker(3);
  for (const FluxEvent& e : bed.session_events(0, 3, 2)) {
    t.on_event(e);
  }
  const StreamTrackerState good = t.save_state();

  StreamTrackerState bad_rng = good;
  bad_rng.rng = "not a generator";
  StreamTracker target = bed.tracker(3);
  EXPECT_THROW(target.restore_state(bad_rng), std::invalid_argument);

  StreamTrackerState bad_window = good;
  bad_window.open.push_back(WindowState{});  // slot counts mismatch
  EXPECT_THROW(target.restore_state(bad_window), std::invalid_argument);

  // Filter values step() never produces are refused too. A NaN particle
  // used to be accepted and then threw FluxModel::shape's non-finite error
  // at the next fired epoch, which ends a manager worker's process.
  const auto image = [](const StreamTrackerState& s) {
    return encode_checkpoint(ManagerCheckpoint{{SessionCheckpoint{0, {}, s}}});
  };
  const std::string before = image(target.save_state());
  ASSERT_GE(good.smc.users.at(0).particles.size(), 2u);
  const auto with_particle = [&](auto edit) {
    StreamTrackerState s = good;
    edit(s.smc.users[0].particles[0]);
    return s;
  };
  // So are window sets on_event() never leaves behind: more open windows
  // than max_open_epochs, or a window for an epoch that already fired.
  ASSERT_GT(good.stats.epochs_fired, 0u);
  const std::size_t max_open = StreamTrackerConfig{}.max_open_epochs;
  const auto with_windows = [&](std::uint32_t first, std::size_t count) {
    StreamTrackerState s = good;
    s.open.clear();
    for (std::size_t i = 0; i < count; ++i) {
      WindowState w;
      w.epoch = first + static_cast<std::uint32_t>(i);
      w.readings.assign(bed.sniffers.size(), net::kMissingReading);
      w.seen.assign(bed.sniffers.size(), false);
      s.open.push_back(std::move(w));
    }
    return s;
  };
  for (const StreamTrackerState& bad :
       {with_particle([](core::Particle& p) {
          p.position.x = std::numeric_limits<double>::quiet_NaN();
        }),
        with_particle([](core::Particle& p) { p.position.x = 1e300; }),
        with_particle([](core::Particle& p) {
          p.weight = std::numeric_limits<double>::quiet_NaN();
        }),
        with_particle([](core::Particle& p) { p.weight = -1.0; }),
        with_windows(good.last_fired_epoch + 1, max_open + 1),
        with_windows(good.last_fired_epoch, 1)}) {
    EXPECT_THROW(target.restore_state(bad), std::invalid_argument);
    EXPECT_EQ(image(target.save_state()), before);
  }
  // An unbounded last-update time is a state the tracker reaches after an
  // inf event timestamp, so it still restores.
  StreamTrackerState unbounded = good;
  unbounded.smc.users[0].t_last = std::numeric_limits<double>::infinity();
  StreamTracker other = bed.tracker(3);
  EXPECT_NO_THROW(other.restore_state(unbounded));
  EXPECT_NO_THROW(
      other.restore_state(with_windows(good.last_fired_epoch + 1, max_open)));

  // The failed restores above must not have partially applied.
  target.restore_state(good);
  EXPECT_EQ(target.stats().events, t.stats().events);
}

}  // namespace
}  // namespace fluxfp::stream
