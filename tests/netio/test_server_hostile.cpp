// Hostile-input coverage at the socket level: truncated frames, oversized
// declared lengths, bad magic, mid-frame disconnects, malformed payloads
// inside well-formed frames, and seeded random-byte fuzzing. The contract
// under test: the server never crashes, answers decodable garbage with a
// typed ERROR frame then a close, treats undecodable garbage as a dead
// connection — and keeps serving well-formed clients afterwards.

#include <gtest/gtest.h>

#include <poll.h>

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

class HostileServer : public ::testing::Test {
 protected:
  void SetUp() override {
    stream::ManagerConfig mc;
    ServerConfig cfg;
    cfg.endpoint = unix_endpoint("hostile");
    server_ = std::make_unique<Server>(bed_.factory(1, 1, mc),
                                       stream::SupervisorConfig{}, cfg);
    server_->start();
  }

  void TearDown() override { server_->stop(); }

  Socket raw_connection() {
    std::string why;
    Socket s = connect_to(server_->endpoint(), &why);
    EXPECT_TRUE(s.valid()) << why;
    return s;
  }

  /// Reads frames until the peer closes; returns the last ERROR payload
  /// seen, if any.
  std::optional<ErrorMsg> drain_for_error(Socket& s) {
    FrameReader reader(s);
    Frame frame;
    std::optional<ErrorMsg> last;
    while (reader.read(frame) == FrameReader::Status::kFrame) {
      if (frame.type == FrameType::kError) {
        ErrorMsg err;
        if (decode_error(frame.payload, err) == std::nullopt) {
          last = err;
        }
      }
    }
    return last;
  }

  /// The recovery probe: after whatever abuse a test inflicted, a
  /// well-formed client must still get full service.
  void assert_still_serving() {
    Client client;
    ASSERT_TRUE(client.connect(server_->endpoint(), 0))
        << client.last_error();
    const auto events = bed_.session_events(0, 2, 300);
    BatchAckMsg ack;
    ASSERT_TRUE(client.send_batch(events, ack)) << client.last_error();
    EXPECT_EQ(ack.accepted, events.size());
    client.goodbye();
  }

  Bed bed_;
  std::unique_ptr<Server> server_;
};

TEST_F(HostileServer, GarbageBytesGetTypedErrorThenClose) {
  Socket s = raw_connection();
  ASSERT_TRUE(s.write_all("this is definitely not an FXN1 frame header"));
  const auto err = drain_for_error(s);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kMalformedFrame);
  assert_still_serving();
}

TEST_F(HostileServer, OversizedDeclaredLengthRefusedWithoutAllocation) {
  // Valid magic and type, length field claiming 4 GB.
  std::string header = encode_frame(FrameType::kEventBatch, "");
  const std::uint32_t huge = 0xfffffff0;
  std::memcpy(header.data() + 8, &huge, sizeof(huge));
  Socket s = raw_connection();
  ASSERT_TRUE(s.write_all(header));
  const auto err = drain_for_error(s);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kMalformedFrame);
  EXPECT_NE(err->message.find("oversized"), std::string::npos)
      << err->message;
  assert_still_serving();
}

TEST_F(HostileServer, UnauthenticatedHeaderLargerThanAHelloIsRefusedAtOnce) {
  HelloMsg hello;
  hello.model = 1;  // the optional byte: the largest HELLO there is
  ASSERT_EQ(encode_hello(hello).size(), kMaxHelloPayloadBytes);
  // A header declaring a 1 MiB EVENT_BATCH, within the frame limit, and
  // not one payload byte after it: before HELLO the server must refuse
  // the header instead of waiting for the payload.
  std::string header = encode_frame(FrameType::kEventBatch, "");
  const std::uint32_t mib = 1u << 20;
  ASSERT_LE(mib, WireLimits{}.max_payload);
  std::memcpy(header.data() + 8, &mib, sizeof(mib));
  Socket s = raw_connection();
  ASSERT_TRUE(s.write_all(header));
  pollfd reply{s.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&reply, 1, 5000), 1)
      << "no reply in 5 s: the server is waiting for the payload";
  const auto err = drain_for_error(s);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kMalformedFrame);
  EXPECT_NE(err->message.find("oversized"), std::string::npos)
      << err->message;
  assert_still_serving();
}

TEST_F(HostileServer, MidHeaderDisconnectLeavesServerServing) {
  {
    Socket s = raw_connection();
    ASSERT_TRUE(s.write_all("FXN1"));  // 4 of 12 header bytes, then gone
  }
  assert_still_serving();
}

TEST_F(HostileServer, MidPayloadDisconnectLeavesServerServing) {
  const std::string whole =
      encode_frame(FrameType::kHello, encode_hello(HelloMsg{}));
  {
    Socket s = raw_connection();
    ASSERT_TRUE(s.write_all(whole.substr(0, whole.size() - 3)));
  }
  assert_still_serving();
}

TEST_F(HostileServer, MalformedPayloadInsideValidFrameIsTypedError) {
  // A perfectly framed HELLO whose payload is too short to decode.
  Socket s = raw_connection();
  ASSERT_TRUE(s.write_all(encode_frame(FrameType::kHello, "ab")));
  const auto err = drain_for_error(s);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kMalformedFrame);
  assert_still_serving();
}

TEST_F(HostileServer, LyingBatchCountIsTypedError) {
  // Authenticate properly, then send an EVENT_BATCH whose count field
  // claims more records than the payload carries.
  Socket s = raw_connection();
  ASSERT_TRUE(
      s.write_all(encode_frame(FrameType::kHello, encode_hello(HelloMsg{}))));
  FrameReader reader(s);
  Frame frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kWelcome);

  std::string payload = encode_event_batch(bed_.session_events(0, 2, 310));
  const std::uint32_t lied = 60000;
  std::memcpy(payload.data(), &lied, sizeof(lied));
  ASSERT_TRUE(s.write_all(encode_frame(FrameType::kEventBatch, payload)));
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorMsg err;
  ASSERT_EQ(decode_error(frame.payload, err), std::nullopt);
  EXPECT_EQ(err.code, ErrorCode::kMalformedFrame);
  assert_still_serving();
}

TEST_F(HostileServer, ServerToClientFrameTypesFromClientAreRejected) {
  Socket s = raw_connection();
  ASSERT_TRUE(
      s.write_all(encode_frame(FrameType::kHello, encode_hello(HelloMsg{}))));
  FrameReader reader(s);
  Frame frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kWelcome);
  ASSERT_TRUE(s.write_all(
      encode_frame(FrameType::kBatchAck, encode_batch_ack(BatchAckMsg{}))));
  ASSERT_EQ(reader.read(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorMsg err;
  ASSERT_EQ(decode_error(frame.payload, err), std::nullopt);
  EXPECT_EQ(err.code, ErrorCode::kMalformedFrame);
  assert_still_serving();
}

TEST_F(HostileServer, SeededFuzzConnectionsNeverKillTheServer) {
  geom::Rng rng(20260809);
  for (int round = 0; round < 40; ++round) {
    Socket s = raw_connection();
    ASSERT_TRUE(s.valid());
    // Random length 0..199 of random bytes; sometimes led by real magic so
    // the fuzz also explores the post-magic header states.
    std::string junk;
    const std::size_t n = static_cast<std::size_t>(rng() % 200);
    if (round % 3 == 0) {
      junk.append(kFrameMagic, sizeof(kFrameMagic));
    }
    for (std::size_t i = 0; i < n; ++i) {
      junk.push_back(static_cast<char>(rng() & 0xff));
    }
    if (!junk.empty()) {
      s.write_all(junk);  // peer may already have closed on us — fine
    }
    if (round % 2 == 0) {
      drain_for_error(s);  // half the time, read whatever came back
    }
  }
  assert_still_serving();
  // And the metrics path still works after the abuse.
  Client client;
  ASSERT_TRUE(client.connect(server_->endpoint(), 0)) << client.last_error();
  MetricsMsg m;
  ASSERT_TRUE(client.metrics(m)) << client.last_error();
  EXPECT_GT(m.connections_opened, 40u);
  client.goodbye();
}

}  // namespace
}  // namespace fluxfp::netio
