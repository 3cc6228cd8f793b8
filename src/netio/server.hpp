#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
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

  /// Ingest-to-estimate latency sampling: every Nth accepted event is
  /// stamped on arrival and resolved when the server next observes that
  /// the event has been folded. 0 disables sampling.
  std::size_t latency_sample_every = 16;
  /// Resolved samples kept for the percentile report (oldest dropped).
  std::size_t max_latency_samples = 65536;
};

/// The FXN1 tracking service: accepts connections on one endpoint,
/// authenticates tenants, and feeds EVENT_BATCH frames through a
/// stream::Supervisor into the TrackerManager — so a crashing shard
/// checkpoint-restores under the connections without dropping them
/// (batches offered while the shard is down are journaled and acknowledged
/// kAccepted, exactly the Supervisor deferral contract).
///
/// Threading: one accept-loop thread plus one thread per connection (the
/// sanctioned raw-thread layout; no poll/epoll). The Supervisor demands a
/// single coordinating thread, so EVERY supervisor interaction — offers,
/// quiesced queries, metrics, crash injection — serializes on one ingest
/// mutex; connection threads contend there per frame, not per event.
/// Backpressure flows through that lock: a full worker queue stalls the
/// offering connection (and any connection behind the lock) until the
/// workers drain, while a tenant at its quota has its newest events shed
/// at once and the shed counts ride back on BATCH_ACK.
///
/// Queries quiesce: QUERY_ESTIMATE and METRICS drain the shard before
/// reading, so a client that saw BATCH_ACK{accepted=n} and then queries
/// observes every one of its n events folded (while the shard is up).
class Server {
 public:
  /// `factory`/`supervisor_config` are handed to the Supervisor verbatim.
  Server(stream::Supervisor::ManagerFactory factory,
         stream::SupervisorConfig supervisor_config, ServerConfig config);
  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the supervisor (baseline checkpoint), binds the endpoint, and
  /// launches the accept loop. Throws on bind failure or a supervisor
  /// that cannot start.
  void start();

  /// Stops accepting, shuts every connection socket (waking blocked
  /// reads), joins all threads, and finish()es the supervisor (final
  /// image). Idempotent.
  void stop();

  bool running() const;

  /// The bound address (TCP port 0 resolved). Valid after start().
  const Endpoint& endpoint() const { return endpoint_; }

  /// Test / fault hook: kill the live shard now (Supervisor::inject_crash
  /// under the ingest lock). Accepted history is checkpoint+journal
  /// protected; connections stay up.
  void inject_crash();

  /// Current service metrics (also the METRICS frame payload). Quiesces
  /// the shard when it is up, so events_processed is exact at the cut.
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

  /// One pending ingest-latency sample: the cumulative accepted-event
  /// count at the stamp, and when it was stamped.
  struct LatencySample {
    std::uint64_t accepted_index = 0;
    std::chrono::steady_clock::time_point stamped;
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

  // The `_locked` methods require ingest_mutex_ — the requirement is now
  // compiler-checked (FLUXFP_REQUIRES), not a naming convention.
  /// Folds freshly observed progress into folded_estimate_ and resolves
  /// every pending latency sample the progress covers.
  void observe_progress_locked() FLUXFP_REQUIRES(ingest_mutex_);
  /// Marks everything accepted so far folded (call after a successful
  /// quiesce — the exact barrier).
  void mark_quiesced_locked() FLUXFP_REQUIRES(ingest_mutex_);
  void resolve_samples_locked(std::chrono::steady_clock::time_point now)
      FLUXFP_REQUIRES(ingest_mutex_);
  MetricsMsg metrics_locked() FLUXFP_REQUIRES(ingest_mutex_);

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
  std::uint64_t closed_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t batches_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t frames_in_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t error_frames_total_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t connections_opened_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t connections_active_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  /// Monotone lower bound on "events folded": advanced by processed_live
  /// observations while one incarnation runs, snapped exact to
  /// accepted_total_ at every quiesce barrier. Restart replays make the
  /// in-between estimate approximate — documented as kScheduling-grade.
  std::uint64_t folded_estimate_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  /// Carried across shard restarts.
  std::uint64_t folded_floor_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::uint64_t restarts_seen_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
  std::deque<LatencySample> pending_samples_
      FLUXFP_GUARDED_BY(ingest_mutex_);
  /// Resolved samples, bounded ring.
  std::vector<double> latency_micros_ FLUXFP_GUARDED_BY(ingest_mutex_);
  std::size_t latency_ring_pos_ FLUXFP_GUARDED_BY(ingest_mutex_) = 0;
};

}  // namespace fluxfp::netio
