// Checkpoint/restore through the socket path: a supervised shard killed
// mid-connection must restore behind the live connections — no accepted
// event is lost, the connection never notices beyond latency, and the
// final estimates are bit-identical to a run that never crashed, at 1 and
// at 4 workers.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "netio/client.hpp"
#include "netio/server.hpp"
#include "test_bed.hpp"

namespace fluxfp::netio {
namespace {

using testing::Bed;
using testing::unix_endpoint;

struct SessionCut {
  std::uint64_t epochs_fired = 0;
  std::uint64_t events_folded = 0;
  std::vector<geom::Vec2> estimates;
};

/// Drives `events` through a freshly started server in thirds over one
/// connection, optionally killing the shard between thirds, and returns
/// the quiesced per-session cut plus the restart count.
std::vector<SessionCut> drive(const Bed& bed, std::size_t sessions,
                              std::size_t workers,
                              const std::vector<stream::FluxEvent>& events,
                              bool crash, const char* tag,
                              std::uint64_t* restarts_out) {
  stream::ManagerConfig mc;
  mc.workers = workers;
  stream::SupervisorConfig scfg;
  scfg.checkpoint_every_epochs = 2;  // keep the journal short
  ServerConfig cfg;
  cfg.endpoint = unix_endpoint(tag);
  Server server(bed.factory(sessions, 1, mc), scfg, cfg);
  server.start();

  Client client;
  EXPECT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  const std::size_t third = events.size() / 3;
  std::uint64_t accepted = 0;
  for (int part = 0; part < 3; ++part) {
    const std::size_t begin = part * third;
    const std::size_t end =
        part == 2 ? events.size() : (part + 1) * third;
    const std::span<const stream::FluxEvent> slice(events.data() + begin,
                                                   end - begin);
    BatchAckMsg ack;
    EXPECT_TRUE(client.send_batch(slice, ack)) << client.last_error();
    accepted += ack.accepted;
    if (crash && part < 2) {
      server.inject_crash();  // shard dies; the connection must survive
    }
  }
  EXPECT_EQ(accepted, events.size())
      << "no quota: every event is accepted, crashes or not";

  std::vector<SessionCut> cuts(sessions);
  for (std::uint32_t u = 0; u < sessions; ++u) {
    EstimateMsg est;
    EXPECT_TRUE(client.query_estimate(u, est)) << client.last_error();
    cuts[u].epochs_fired = est.epochs_fired;
    cuts[u].events_folded = est.events_folded;
    cuts[u].estimates = est.estimates;
  }
  MetricsMsg m;
  EXPECT_TRUE(client.metrics(m)) << client.last_error();
  if (restarts_out != nullptr) {
    *restarts_out = m.restarts;
  }
  EXPECT_EQ(m.events_processed, m.events_accepted);
  client.goodbye();
  server.stop();
  return cuts;
}

void expect_bit_identical(const std::vector<SessionCut>& a,
                          const std::vector<SessionCut>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].epochs_fired, b[u].epochs_fired) << what << " user " << u;
    EXPECT_EQ(a[u].events_folded, b[u].events_folded)
        << what << " user " << u;
    ASSERT_EQ(a[u].estimates.size(), b[u].estimates.size());
    for (std::size_t s = 0; s < a[u].estimates.size(); ++s) {
      EXPECT_EQ(std::memcmp(&a[u].estimates[s].x, &b[u].estimates[s].x,
                            sizeof(double)),
                0)
          << what << " user " << u;
      EXPECT_EQ(std::memcmp(&a[u].estimates[s].y, &b[u].estimates[s].y,
                            sizeof(double)),
                0)
          << what << " user " << u;
    }
  }
}

TEST(ServerRecovery, CrashMidConnectionReconstructsBitIdentically) {
  Bed bed;
  const std::size_t kSessions = 2;
  const auto events = bed.merged_stream(kSessions, 4, 4200);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::uint64_t restarts_clean = 0;
    const auto clean = drive(bed, kSessions, workers, events, false,
                             workers == 1 ? "rc1" : "rc4", &restarts_clean);
    EXPECT_EQ(restarts_clean, 0u);

    std::uint64_t restarts_crashed = 0;
    const auto crashed =
        drive(bed, kSessions, workers, events, true,
              workers == 1 ? "rx1" : "rx4", &restarts_crashed);
    EXPECT_GE(restarts_crashed, 1u) << "injected crashes must restart";

    expect_bit_identical(clean, crashed,
                         workers == 1 ? "workers=1" : "workers=4");
  }
}

TEST(ServerRecovery, QueryRightAfterACrashReadsTheRestoredShard) {
  // A crash restarts the shard at once, in place — restore the workers'
  // cuts, re-fold their journals, under the ingest lock — so a query
  // right after it, with no batch in between, reads the sessions exactly
  // as they stood before the crash, on the connection that saw it.
  Bed bed;
  stream::ManagerConfig mc;
  mc.workers = 1;
  stream::SupervisorConfig scfg;
  ServerConfig cfg;
  cfg.endpoint = unix_endpoint("requery");
  Server server(bed.factory(1, 1, mc), scfg, cfg);
  server.start();
  const auto events = bed.session_events(0, 3, 4300);

  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  BatchAckMsg ack;
  ASSERT_TRUE(client.send_batch(events, ack)) << client.last_error();
  ASSERT_EQ(ack.accepted, events.size());
  EstimateMsg before;
  ASSERT_TRUE(client.query_estimate(0, before)) << client.last_error();
  ASSERT_GT(before.epochs_fired, 0u);

  server.inject_crash();
  EstimateMsg after;
  ASSERT_TRUE(client.query_estimate(0, after)) << client.last_error();
  const auto cut = [](const EstimateMsg& e) {
    return std::vector<SessionCut>{
        {e.epochs_fired, e.events_folded, e.estimates}};
  };
  expect_bit_identical(cut(before), cut(after), "query after the crash");
  // The restarted sessions' own counts cover the re-folded journals.
  MetricsMsg m;
  ASSERT_TRUE(client.metrics(m)) << client.last_error();
  EXPECT_EQ(m.restarts, 1u);
  EXPECT_EQ(m.events_accepted, events.size());
  EXPECT_EQ(m.events_processed, m.events_accepted);
  client.goodbye();
  server.stop();
}

TEST(ServerRecovery, CrashWhileABatchWaitsForRoomReleasesItAndReplays) {
  // A batch overruns a 2-slot queue behind folds of tens of ms each, so
  // its connection is still waiting for room, outside the ingest lock,
  // when the shard is killed. The crash first quiesces the shard, which
  // drains the queues and releases the wait: the batch is acknowledged in
  // full, folded and journaled, and re-folded at the restart — the
  // session ends exactly where an uninterrupted tracker fed the same
  // events does.
  Bed bed;
  const auto slow = [&bed](std::uint64_t seed) {
    stream::StreamTrackerConfig tc;
    tc.smc.num_predictions = 50000;
    tc.smc.num_keep = 4;
    tc.expected_readings = 1;  // every event fires an epoch
    return stream::StreamTracker(bed.model, bed.graph, bed.sniffers, 1, tc,
                                 seed);
  };
  stream::SupervisorConfig scfg;
  scfg.checkpoint_every_epochs = 100;  // past its 12 epochs: the baseline only
  ServerConfig cfg;
  cfg.endpoint = unix_endpoint("roomcrash");
  Server server(
      [&slow] {
        stream::ManagerConfig mc;
        mc.queue_capacity = 2;
        auto m = std::make_unique<stream::TrackerManager>(mc);
        m->add_session(0, slow(1000));
        return m;
      },
      scfg, cfg);
  server.start();
  std::vector<stream::FluxEvent> events;
  for (std::uint32_t e = 0; e < 12; ++e) {
    events.push_back({static_cast<double>(e), 0, e,
                      static_cast<std::uint32_t>(bed.sniffers[0]), 1.0});
  }
  const std::span<const stream::FluxEvent> all(events);

  std::string why;
  Socket raw = connect_to(server.endpoint(), &why);
  ASSERT_TRUE(raw.valid()) << why;
  ASSERT_TRUE(raw.write_all(
      encode_frame(FrameType::kHello, encode_hello(HelloMsg{}))));
  FrameReader reader(raw);
  Frame frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kWelcome);
  // Eight events go out without waiting for their ack; the first fold
  // takes longer than the pause, so the connection is waiting for room.
  ASSERT_TRUE(raw.write_all(encode_frame(
      FrameType::kEventBatch, encode_event_batch(all.first(8)))));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.inject_crash();
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kBatchAck);
  BatchAckMsg ack;
  ASSERT_FALSE(decode_batch_ack(frame.payload, ack).has_value());
  EXPECT_EQ(ack.accepted, 8u);

  // The rest goes to the restarted shard.
  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  BatchAckMsg rest;
  ASSERT_TRUE(client.send_batch(all.subspan(8), rest)) << client.last_error();
  EXPECT_EQ(rest.accepted, 4u);
  EstimateMsg est;
  ASSERT_TRUE(client.query_estimate(0, est)) << client.last_error();
  MetricsMsg metrics;
  ASSERT_TRUE(client.metrics(metrics)) << client.last_error();
  EXPECT_EQ(metrics.restarts, 1u);
  client.goodbye();
  raw.shutdown_both();
  server.stop();

  stream::StreamTracker reference = slow(1000);
  for (const stream::FluxEvent& e : events) {
    reference.on_event(e);
  }
  EXPECT_EQ(est.events_folded, events.size());
  EXPECT_EQ(est.epochs_fired, reference.stats().epochs_fired);
  ASSERT_EQ(est.estimates.size(), 1u);
  const geom::Vec2 want = reference.estimate(0);
  EXPECT_EQ(std::memcmp(&est.estimates[0].x, &want.x, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&est.estimates[0].y, &want.y, sizeof(double)), 0);
}

}  // namespace
}  // namespace fluxfp::netio
