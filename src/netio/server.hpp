#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "netio/socket.hpp"
#include "netio/wire.hpp"
#include "stream/supervisor.hpp"
#include "support/thread_annotations.hpp"

namespace fluxfp::netio {

/// Service policy knobs on top of the stream layer's own configuration
/// (sharding/admission lives in ManagerConfig, crash recovery in
/// SupervisorConfig — the server adds only what the wire needs).
struct ServerConfig {
  /// Where to listen. TCP port 0 picks an ephemeral port; endpoint()
  /// reports the resolved address.
  Endpoint endpoint;

  /// Decoder bounds applied to every connection.
  WireLimits limits;

  /// tenant id -> auth token. Empty = open auth (any HELLO is welcome —
  /// loopback demos); non-empty = a HELLO for an unlisted tenant or with
  /// the wrong token is refused with ERROR{kAuthFailed}.
  std::map<std::uint32_t, std::uint64_t> tenant_tokens;

  /// Observation model the hosted trackers fold (core::ModelId values).
  /// A HELLO declaring a different model is refused with
  /// ERROR{kModelMismatch} — readings are meaningless to a tracker built
  /// for another sensing modality. Clients that predate the model byte
  /// implicitly declare flux (0), so a flux server keeps accepting them.
  std::uint8_t model = 0;
};

/// The FXN1 tracking service: accepts connections on one endpoint,
/// authenticates tenants, and feeds EVENT_BATCH frames through a
/// stream::Supervisor into the TrackerManager — so a crashing shard
/// checkpoint-restores under the connections without dropping them: the
/// restart runs at the crash, under the ingest lock, and the next frame
/// finds the shard up. The shard is never down.
///
/// Threading: one accept-loop thread plus one thread per connection (the
/// sanctioned raw-thread layout; no poll/epoll). The Supervisor demands a
/// single coordinating thread, so EVERY supervisor interaction — offers,
/// quiesced queries, metrics, crash injection — serializes on one ingest
/// mutex; connection threads contend there per frame, not per event.
/// Under the lock an EVENT_BATCH is one Supervisor::offer of the batch,
/// which appends each worker's share to its queue without waiting.
/// Backpressure comes after the lock: the connection waits until every
/// queue its batch touched is below capacity again, then sends BATCH_ACK,
/// so a connection behind a slow worker never stalls the others. A tenant
/// at its quota has its newest events shed at once and the shed counts
/// ride back on BATCH_ACK. A checkpoint file write that fails under a
/// batch changes nothing here: the Supervisor counts it and the batch
/// waits for room and is acknowledged like any other.
///
/// Queries quiesce: QUERY_ESTIMATE and METRICS drain the shard before
/// reading, so a client that saw BATCH_ACK{accepted=n} and then queries
/// observes every one of its n events folded. METRICS counts where the
/// work happens: events_processed is the sessions' own count of events
/// taken, and the ingest-to-estimate percentiles are the workers' per-run
/// samples (TrackerManager).
class Server {
 public:
  /// `factory`/`supervisor_config` are handed to the Supervisor verbatim.
  Server(stream::Supervisor::ManagerFactory factory,
         stream::SupervisorConfig supervisor_config, ServerConfig config);
  /// stop()s if still running, dropping stop()'s error.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the supervisor (baseline checkpoint), binds the endpoint, and
  /// launches the accept loop. Throws on bind failure or a supervisor
  /// that cannot start.
  void start();

  /// Stops accepting, shuts every connection socket (waking blocked
  /// reads), joins all threads, and finish()es the supervisor (final
  /// image). Idempotent. Throws std::runtime_error, once everything has
  /// stopped, when the final image cannot be written to checkpoint_path.
  void stop();

  bool running() const;

  /// The bound address (TCP port 0 resolved). Valid after start().
  const Endpoint& endpoint() const { return endpoint_; }

  /// Test / fault hook: kill the live shard now (Supervisor::inject_crash
  /// under the ingest lock), which restores it before returning. Accepted
  /// history is checkpoint+journal protected; connections stay up.
  void inject_crash();

  /// Current service metrics (also the METRICS frame payload). Quiesces
  /// the shard and reads events_processed and the ingest latencies off
  /// it; before start() those read zero.
  MetricsMsg metrics();

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::uint64_t id = 0;
    /// Thread finished (joinable without blocking); the accept loop reaps
    /// done connections so a long-lived server does not hoard fds.
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection& conn);
  /// Handles one decoded frame. False ends the connection (after kError /
  /// kGoodbye). Takes ingest_mutex_ internally as needed.
  bool handle_frame(Connection& conn, bool& authed, std::uint32_t& tenant,
                    const Frame& frame);
  /// Writes an ERROR frame and counts it. Always returns false (the
  /// connection is over).
  bool send_error(Connection& conn, ErrorCode code, std::uint64_t offset,
                  const std::string& message);
  bool send_frame(Connection& conn, FrameType type,
                  const std::string& payload);

  /// The Supervisor demands a single coordinating thread; guarding the
  /// object itself with ingest_mutex_ is how that contract is enforced
  /// statically (see stream/supervisor.hpp "Threading").
  stream::Supervisor supervisor_ FLUXFP_GUARDED_BY(ingest_mutex_);
  ServerConfig config_;
  Endpoint endpoint_;
  Listener listener_;
  std::thread accept_thread_;
  /// Lifecycle flag. Relaxed everywhere: start/stop publication happens
  /// via thread creation and the shutdown/join handshake; this flag only
  /// makes stop() idempotent and running() advisory.
  std::atomic<bool> running_{false};  // fluxfp-lint: allow(atomics-policy) -- lifecycle flag read lock-free by accept/conn loops; folding it under conns_mutex_ would deadlock stop() against join

  /// user id -> owning tenant, frozen at start() before any connection
  /// thread exists; read bare afterwards (never guarded, never written).
  std::unordered_map<std::uint32_t, std::uint32_t> user_tenant_;
  /// tenant -> registered session count (WELCOME's `sessions`).
  std::unordered_map<std::uint32_t, std::uint32_t> tenant_sessions_;

  support::Mutex conns_mutex_;
  std::list<Connection> conns_ FLUXFP_GUARDED_BY(conns_mutex_);
  std::uint64_t next_connection_id_ FLUXFP_GUARDED_BY(conns_mutex_) = 1;

  /// Serializes every Supervisor interaction and guards the counters.
  /// Canonical order: conns_mutex_ before ingest_mutex_ (the accept loop
  /// nests them that way); see DESIGN.md's lock-order graph.
  support::Mutex ingest_mutex_;
  std::chrono::steady_clock::time_point started_at_;
  std::uint64_t accepted_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t shed_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t unknown_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t foreign_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t batches_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t frames_in_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t error_frames_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t connections_opened_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t connections_active_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
};

}  // namespace fluxfp::netio
