#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "netio/socket.hpp"
#include "netio/wire.hpp"

namespace fluxfp::netio {

/// Blocking FXN1 client: one connection, strict request/reply. Every call
/// sends one frame and waits for the matching reply; on any failure —
/// transport, malformed reply, or a server ERROR frame — the call returns
/// false, last_error() explains, server_error() holds the typed ERROR
/// payload when the server sent one, and the connection is closed (the
/// server's ERROR contract is "typed reason, then close", so there is
/// nothing to salvage; reconnect to continue).
///
/// Used by stream_daemon's query subcommand and by every fluxfp_loadgen
/// connection — the loadgen's drop/shed numbers are read straight off
/// these BatchAck/Metrics replies.
class Client {
 public:
  Client() = default;

  /// Connects and completes the HELLO/WELCOME handshake as `tenant`.
  /// `model` declares which observation model the readings belong to
  /// (core::ModelId values); the default 0 (flux) keeps the HELLO payload
  /// byte-identical to pre-model-tag clients.
  bool connect(const Endpoint& endpoint, std::uint32_t tenant,
               std::uint64_t token = 0, std::uint8_t model = 0);

  bool connected() const { return socket_.valid(); }

  /// The server's WELCOME (session count, connection id). Valid while
  /// connected.
  const WelcomeMsg& welcome() const { return welcome_; }

  /// Sends one EVENT_BATCH and fills the admission tallies from BATCH_ACK.
  bool send_batch(std::span<const stream::FluxEvent> events,
                  BatchAckMsg& ack);

  /// Quiesced estimate of one session.
  bool query_estimate(std::uint32_t user, EstimateMsg& out);

  /// The server's newest committed FLUXFPC1 checkpoint image.
  bool snapshot(std::string& image);

  /// Service metrics (quiesced events_processed, latency percentiles).
  bool metrics(MetricsMsg& out);

  /// Clean close: GOODBYE, wait for GOODBYE_OK, disconnect. False when
  /// the server was gone already (the connection is closed either way).
  bool goodbye();

  void close();

  /// Human-readable reason of the last failed call.
  const std::string& last_error() const { return last_error_; }

  /// The typed ERROR frame behind the last failure, when the server sent
  /// one (empty on transport-level failures).
  const std::optional<ErrorMsg>& server_error() const {
    return server_error_;
  }

 private:
  /// Sends `request` and reads the reply; true only when the reply has
  /// frame type `want`. Fills last_error_/server_error_ and closes on
  /// every failure path.
  bool roundtrip(FrameType type, const std::string& payload, FrameType want,
                 Frame& reply);
  bool fail(const std::string& why);

  Socket socket_;
  std::optional<FrameReader> reader_;
  WelcomeMsg welcome_;
  std::string last_error_;
  std::optional<ErrorMsg> server_error_;
};

}  // namespace fluxfp::netio
