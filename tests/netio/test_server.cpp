// End-to-end loopback coverage of the FXN1 server through the blocking
// Client: handshake and auth, batch admission tallies, tenant isolation,
// quiesced queries that are bit-identical to an in-process supervised run
// at any worker count, snapshots, metrics, and quota shedding.

#include "netio/server.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "netio/client.hpp"
#include "test_bed.hpp"

namespace fluxfp::netio {
namespace {

using testing::Bed;
using testing::unix_endpoint;

ServerConfig server_config(const Endpoint& ep) {
  ServerConfig cfg;
  cfg.endpoint = ep;
  return cfg;
}

TEST(Server, HandshakeReportsTenantSessionCount) {
  Bed bed;
  stream::ManagerConfig mc;
  // 3 sessions over 2 tenants: tenant 0 owns users {0, 2}, tenant 1 {1}.
  Server server(bed.factory(3, 2, mc), {}, server_config(
                    unix_endpoint("hello")));
  server.start();

  Client c0;
  ASSERT_TRUE(c0.connect(server.endpoint(), 0)) << c0.last_error();
  EXPECT_EQ(c0.welcome().version, kWireVersion);
  EXPECT_EQ(c0.welcome().sessions, 2u);
  EXPECT_GT(c0.welcome().connection_id, 0u);
  EXPECT_TRUE(c0.goodbye());

  Client c1;
  ASSERT_TRUE(c1.connect(server.endpoint(), 1)) << c1.last_error();
  EXPECT_EQ(c1.welcome().sessions, 1u);
  c1.goodbye();
  server.stop();
}

TEST(Server, RejectsWrongTokenAndUnknownTenant) {
  Bed bed;
  stream::ManagerConfig mc;
  ServerConfig cfg = server_config(unix_endpoint("auth"));
  cfg.tenant_tokens = {{0, 111}, {1, 222}};
  Server server(bed.factory(2, 2, mc), {}, cfg);
  server.start();

  Client good;
  EXPECT_TRUE(good.connect(server.endpoint(), 0, 111)) << good.last_error();
  good.goodbye();

  Client wrong;
  EXPECT_FALSE(wrong.connect(server.endpoint(), 0, 999));
  ASSERT_TRUE(wrong.server_error().has_value()) << wrong.last_error();
  EXPECT_EQ(wrong.server_error()->code, ErrorCode::kAuthFailed);

  Client unknown;
  EXPECT_FALSE(unknown.connect(server.endpoint(), 7, 111));
  ASSERT_TRUE(unknown.server_error().has_value());
  // Deliberately the same code: the refusal must not reveal whether the
  // tenant exists.
  EXPECT_EQ(unknown.server_error()->code, ErrorCode::kAuthFailed);
  server.stop();
}

TEST(Server, FirstFrameMustBeHello) {
  Bed bed;
  stream::ManagerConfig mc;
  Server server(bed.factory(1, 1, mc), {},
                server_config(unix_endpoint("nothello")));
  server.start();

  std::string why;
  Socket raw = connect_to(server.endpoint(), &why);
  ASSERT_TRUE(raw.valid()) << why;
  ASSERT_TRUE(raw.write_all(encode_frame(FrameType::kQueryEstimate,
                                         encode_query(QueryMsg{}))));
  FrameReader reader(raw);
  Frame frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorMsg err;
  ASSERT_EQ(decode_error(frame.payload, err), std::nullopt);
  EXPECT_EQ(err.code, ErrorCode::kNotAuthenticated);
  // Typed reason, then close.
  EXPECT_EQ(reader.read(frame), FrameReader::Status::kEnd);
  server.stop();
}

TEST(Server, ObservationModelMismatchRefused) {
  Bed bed;
  stream::ManagerConfig mc;
  ServerConfig cfg = server_config(unix_endpoint("model"));
  cfg.model = 1;  // this service folds rss-link readings
  Server server(bed.factory(1, 1, mc), {}, cfg);
  server.start();

  // A client declaring the matching model is welcome.
  Client good;
  ASSERT_TRUE(good.connect(server.endpoint(), 0, 0, /*model=*/1))
      << good.last_error();
  EXPECT_TRUE(good.goodbye());

  // A legacy flux client (no model byte on the wire) is refused with the
  // typed code — before auth, like the version check.
  Client flux;
  ASSERT_FALSE(flux.connect(server.endpoint(), 0));
  ASSERT_TRUE(flux.server_error().has_value());
  EXPECT_EQ(flux.server_error()->code, ErrorCode::kModelMismatch);

  Client passive;
  ASSERT_FALSE(passive.connect(server.endpoint(), 0, 0, /*model=*/2));
  ASSERT_TRUE(passive.server_error().has_value());
  EXPECT_EQ(passive.server_error()->code, ErrorCode::kModelMismatch);
  server.stop();
}

TEST(Server, UnsupportedHelloVersionRefused) {
  Bed bed;
  stream::ManagerConfig mc;
  Server server(bed.factory(1, 1, mc), {},
                server_config(unix_endpoint("version")));
  server.start();

  std::string why;
  Socket raw = connect_to(server.endpoint(), &why);
  ASSERT_TRUE(raw.valid()) << why;
  HelloMsg hello;
  hello.version = 99;
  ASSERT_TRUE(
      raw.write_all(encode_frame(FrameType::kHello, encode_hello(hello))));
  FrameReader reader(raw);
  Frame frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorMsg err;
  ASSERT_EQ(decode_error(frame.payload, err), std::nullopt);
  EXPECT_EQ(err.code, ErrorCode::kUnsupportedVersion);
  server.stop();
}

TEST(Server, BatchTalliesAcceptedUnknownAndForeign) {
  Bed bed;
  stream::ManagerConfig mc;
  Server server(bed.factory(2, 2, mc), {},
                server_config(unix_endpoint("tally")));
  server.start();

  auto events = bed.session_events(0, 3, 500);  // tenant 0's user
  const std::size_t own = events.size();
  {
    auto foreign = bed.session_events(1, 3, 501);  // tenant 1's user
    events.insert(events.end(), foreign.begin(), foreign.end());
  }
  stream::FluxEvent ghost = events.front();
  ghost.user = 42;  // registered nowhere
  events.push_back(ghost);

  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  BatchAckMsg ack;
  ASSERT_TRUE(client.send_batch(events, ack)) << client.last_error();
  EXPECT_EQ(ack.accepted, own);
  EXPECT_EQ(ack.foreign, events.size() - own - 1);
  EXPECT_EQ(ack.unknown, 1u);
  EXPECT_EQ(ack.shed, 0u);

  // Tenant isolation: the foreign events were never offered — tenant 1's
  // session still has nothing folded.
  Client other;
  ASSERT_TRUE(other.connect(server.endpoint(), 1)) << other.last_error();
  EstimateMsg est;
  ASSERT_TRUE(other.query_estimate(1, est)) << other.last_error();
  EXPECT_EQ(est.events_folded, 0u);
  EXPECT_EQ(est.epochs_fired, 0u);
  other.goodbye();
  client.goodbye();
  server.stop();
}

TEST(Server, ForeignQueryIsIndistinguishableFromUnknownUser) {
  Bed bed;
  stream::ManagerConfig mc;
  Server server(bed.factory(2, 2, mc), {},
                server_config(unix_endpoint("fquery")));
  server.start();

  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  EstimateMsg est;
  ASSERT_FALSE(client.query_estimate(1, est));  // tenant 1's session
  ASSERT_TRUE(client.server_error().has_value()) << client.last_error();
  const ErrorCode foreign_code = client.server_error()->code;

  Client client2;
  ASSERT_TRUE(client2.connect(server.endpoint(), 0)) << client2.last_error();
  ASSERT_FALSE(client2.query_estimate(42, est));  // truly unknown
  ASSERT_TRUE(client2.server_error().has_value());
  EXPECT_EQ(foreign_code, client2.server_error()->code)
      << "foreign and unknown must be indistinguishable to the client";
  EXPECT_EQ(foreign_code, ErrorCode::kUnknownUser);
  server.stop();
}

/// The service contract inherited from the stream layer: with no quota the
/// wire path folds exactly what an in-process supervised run folds, at any
/// worker count — estimates are compared bit-for-bit.
TEST(Server, QueriedEstimatesBitIdenticalToInProcessRunAtAnyWorkerCount) {
  Bed bed;
  const std::size_t kSessions = 2;
  const auto events = bed.merged_stream(kSessions, 4, 700);

  // Reference: supervised in-process run, one worker.
  std::vector<EstimateMsg> reference(kSessions);
  {
    stream::ManagerConfig mc;
    mc.workers = 1;
    stream::Supervisor sup(bed.factory(kSessions, 1, mc), {});
    sup.start();
    for (const auto& e : events) {
      sup.offer(e);
    }
    ASSERT_TRUE(sup.quiesce());
    for (std::uint32_t u = 0; u < kSessions; ++u) {
      const auto& tracker = sup.manager()->session(u);
      reference[u].epochs_fired = tracker.stats().epochs_fired;
      reference[u].events_folded = tracker.stats().events;
      reference[u].time = tracker.now();
      for (std::size_t s = 0; s < tracker.num_users(); ++s) {
        reference[u].estimates.push_back(tracker.estimate(s));
      }
    }
    sup.finish();
  }

  for (const std::size_t workers : {1u, 4u}) {
    stream::ManagerConfig mc;
    mc.workers = workers;
    Server server(bed.factory(kSessions, 1, mc), {},
                  server_config(unix_endpoint(
                      workers == 1 ? "bitid1" : "bitid4")));
    server.start();
    Client client;
    ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
    BatchAckMsg ack;
    ASSERT_TRUE(client.send_batch(events, ack)) << client.last_error();
    ASSERT_EQ(ack.accepted, events.size());
    for (std::uint32_t u = 0; u < kSessions; ++u) {
      EstimateMsg est;
      ASSERT_TRUE(client.query_estimate(u, est)) << client.last_error();
      EXPECT_EQ(est.epochs_fired, reference[u].epochs_fired);
      EXPECT_EQ(est.events_folded, reference[u].events_folded);
      ASSERT_EQ(est.estimates.size(), reference[u].estimates.size());
      for (std::size_t s = 0; s < est.estimates.size(); ++s) {
        EXPECT_EQ(std::memcmp(&est.estimates[s].x,
                              &reference[u].estimates[s].x, sizeof(double)),
                  0)
            << "workers=" << workers << " user=" << u;
        EXPECT_EQ(std::memcmp(&est.estimates[s].y,
                              &reference[u].estimates[s].y, sizeof(double)),
                  0);
      }
    }
    client.goodbye();
    server.stop();
  }
}

TEST(Server, SnapshotReturnsCommittedCheckpointImage) {
  Bed bed;
  stream::ManagerConfig mc;
  Server server(bed.factory(1, 1, mc), {},
                server_config(unix_endpoint("snap")));
  server.start();
  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  std::string image;
  ASSERT_TRUE(client.snapshot(image)) << client.last_error();
  ASSERT_GE(image.size(), 8u);
  EXPECT_EQ(image.substr(0, 8), "FLUXFPC1");
  client.goodbye();
  server.stop();
}

TEST(Server, MetricsCountEverything) {
  Bed bed;
  stream::ManagerConfig mc;
  Server server(bed.factory(2, 1, mc), {},
                server_config(unix_endpoint("metrics")));
  server.start();
  const auto events = bed.merged_stream(2, 3, 800);
  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  BatchAckMsg ack;
  ASSERT_TRUE(client.send_batch(events, ack)) << client.last_error();
  MetricsMsg m;
  ASSERT_TRUE(client.metrics(m)) << client.last_error();
  EXPECT_EQ(m.events_accepted, events.size());
  EXPECT_EQ(m.events_processed, events.size()) << "metrics must quiesce";
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.error_frames, 0u);
  EXPECT_EQ(m.sessions, 2u);
  EXPECT_EQ(m.connections_opened, 1u);
  EXPECT_EQ(m.connections_active, 1u);
  EXPECT_GT(m.ingest_samples, 0u);
  EXPECT_GE(m.ingest_p99_us, m.ingest_p50_us);
  EXPECT_GE(m.ingest_max_us, m.ingest_p99_us);
  client.goodbye();
  server.stop();
}

TEST(Server, ShedNewestPolicyReportsShedOnAck) {
  Bed bed;
  stream::ManagerConfig mc;
  mc.workers = 1;
  mc.queue_capacity = 64;
  mc.tenant_quota = 1;
  // Every event completes an epoch and each fold takes tens of ms
  // (num_predictions cranked way up), so the one-slot quota stays pinned
  // across the whole burst: shedding is structural, not a scheduling race.
  auto factory = [&bed, mc] {
    auto m = std::make_unique<stream::TrackerManager>(mc);
    stream::StreamTrackerConfig cfg;
    cfg.smc.num_predictions = 50000;
    cfg.smc.num_keep = 4;
    cfg.expected_readings = 1;
    m->add_session(0,
                   stream::StreamTracker(bed.model, bed.graph, bed.sniffers,
                                         1, cfg, 7),
                   stream::SessionOptions{});
    return m;
  };
  Server server(factory, {}, server_config(unix_endpoint("shed")));
  server.start();
  std::vector<stream::FluxEvent> events;
  for (std::uint32_t e = 0; e < 80; ++e) {
    events.push_back({static_cast<double>(e), 0, e,
                      static_cast<std::uint32_t>(bed.sniffers[0]), 1.0});
  }
  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  BatchAckMsg ack;
  ASSERT_TRUE(client.send_batch(events, ack)) << client.last_error();
  // Every record lands in exactly one bucket; with a tiny quota and a
  // one-shot burst, at least one must have been shed.
  EXPECT_EQ(ack.accepted + ack.shed + ack.unknown + ack.foreign + ack.closed,
            events.size());
  EXPECT_GT(ack.shed, 0u);
  MetricsMsg m;
  ASSERT_TRUE(client.metrics(m)) << client.last_error();
  EXPECT_EQ(m.events_shed, ack.shed);
  EXPECT_EQ(m.events_processed, ack.accepted) << "all accepted events fold";
  client.goodbye();
  server.stop();
}

TEST(Server, StopWhileConnectionsOpenIsClean) {
  Bed bed;
  stream::ManagerConfig mc;
  Server server(bed.factory(1, 1, mc), {},
                server_config(unix_endpoint("stop")));
  server.start();
  Client client;
  ASSERT_TRUE(client.connect(server.endpoint(), 0)) << client.last_error();
  server.stop();  // must shut the socket and join without the goodbye
  EXPECT_FALSE(server.running());
  // The client observes a clean close (or reset), not a hang.
  EstimateMsg est;
  EXPECT_FALSE(client.query_estimate(0, est));
}

}  // namespace
}  // namespace fluxfp::netio
