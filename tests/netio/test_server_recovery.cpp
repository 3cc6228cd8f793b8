// Checkpoint/restore through the socket path: a supervised shard killed
// mid-connection must restore behind the live connections — no accepted
// event is lost, the connection never notices beyond latency, and the
// final estimates are bit-identical to a run that never crashed, at 1 and
// at 4 workers.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
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
  // Restart is gated on virtual time (restart_at_ = crash time + backoff),
  // and virtual time only advances with offered event timestamps — so keep
  // the backoff tiny or the whole tail of the stream gets deferred.
  scfg.backoff_base = 0.01;
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
      << "no quota + journaled deferral: nothing accepted may be lost";

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

TEST(ServerRecovery, QueryWhileShardDownGetsUnavailableButIngestSurvives) {
  Bed bed;
  stream::ManagerConfig mc;
  mc.workers = 1;
  // Default backoff: the shard stays down until an offer arrives whose
  // timestamp is at least backoff_base (1.0) past the crash point, so the
  // window where queries see kUnavailable is deterministic.
  stream::SupervisorConfig scfg;
  ServerConfig cfg;
  cfg.endpoint = unix_endpoint("down");
  Server server(bed.factory(1, 1, mc), scfg, cfg);
  server.start();
  const auto events = bed.session_events(0, 3, 4300);

  Client ingest;
  ASSERT_TRUE(ingest.connect(server.endpoint(), 0)) << ingest.last_error();
  BatchAckMsg ack;
  ASSERT_TRUE(ingest.send_batch(events, ack)) << ingest.last_error();
  ASSERT_EQ(ack.accepted, events.size());

  server.inject_crash();

  // Queries cannot advance virtual time, so while the shard is down the
  // refusal must be the typed kUnavailable — and because ERROR frames are
  // terminal, it costs the prober its connection, never the server.
  Client query;
  ASSERT_TRUE(query.connect(server.endpoint(), 0)) << query.last_error();
  EstimateMsg est;
  ASSERT_FALSE(query.query_estimate(0, est));
  ASSERT_TRUE(query.server_error().has_value()) << query.last_error();
  EXPECT_EQ(query.server_error()->code, ErrorCode::kUnavailable);

  // Ingest on the surviving connection keeps being accepted (journaled
  // deferral) and, once the event clock moves past the backoff window,
  // heals the shard: restore + replay, then queries work again.
  std::vector<stream::FluxEvent> later = events;
  for (auto& e : later) {
    e.time += 2.0;  // > backoff_base, so the first offer triggers restart
  }
  BatchAckMsg ack2;
  ASSERT_TRUE(ingest.send_batch(later, ack2)) << ingest.last_error();
  EXPECT_EQ(ack2.accepted, later.size());
  EstimateMsg healed;
  ASSERT_TRUE(ingest.query_estimate(0, healed)) << ingest.last_error();
  EXPECT_GT(healed.events_folded, 0u);
  ingest.goodbye();
  server.stop();
}

}  // namespace
}  // namespace fluxfp::netio
