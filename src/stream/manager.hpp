#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "stream/checkpoint.hpp"
#include "stream/event_queue.hpp"
#include "stream/stream_tracker.hpp"
#include "support/thread_annotations.hpp"

namespace fluxfp::stream {

/// What the service does with an event whose tenant is over quota —
/// graceful degradation under overload, chosen per deployment.
enum class AdmissionPolicy {
  /// offer() blocks until the tenant drains below quota — lossless
  /// backpressure, the default. A blocked producer observes finish()
  /// promptly (same contract as EventQueue close()).
  kBlock,
  /// The incoming event is shed (offer() returns kShedQuota) — newest
  /// work is the cheapest to lose when the tracker will re-estimate next
  /// epoch anyway.
  kShedNewest,
  /// The incoming event displaces the oldest queued event of the
  /// tenant's lowest-priority session when the incoming session outranks
  /// it; otherwise the incoming event is shed. Keeps high-priority
  /// sessions tracking through a low-priority flood.
  kShedLowestPriority,
};

/// Admission outcome of one offer()ed event.
enum class PushStatus {
  kAccepted,     ///< routed to the session's worker queue
  kUnknownUser,  ///< no such session registered (counted)
  kShedQuota,    ///< tenant over quota and policy chose to shed (counted)
  kClosed,       ///< service not started, finished, or closing
};

/// Per-session admission attributes. Sessions of one tenant share that
/// tenant's quota; priority orders sessions within a tenant for
/// kShedLowestPriority (higher value = more important).
struct SessionOptions {
  std::uint32_t tenant = 0;
  std::uint32_t priority = 0;
};

/// Sharding and backpressure policy of the tracking service.
struct ManagerConfig {
  /// Worker threads events are sharded over (>= 1). Each session is pinned
  /// to one worker; per-session event order is preserved by routing, so
  /// results are bit-identical at any worker count (unless a shedding
  /// AdmissionPolicy drops events).
  std::size_t workers = 1;
  /// Per-worker ingest queue bound; a full queue blocks offer().
  std::size_t queue_capacity = 256;
  /// Max in-flight (queued, not yet folded) events per tenant; 0 disables
  /// admission control entirely — the default keeps the no-quota hot path
  /// free of admission bookkeeping.
  std::size_t tenant_quota = 0;
  /// What an over-quota tenant's next event meets. Ignored while
  /// tenant_quota == 0.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
};

/// Service-level counters, valid after finish().
struct ManagerStats {
  std::uint64_t events_routed = 0;     ///< accepted by offer()
  std::uint64_t events_processed = 0;  ///< popped and folded by workers
  std::uint64_t events_shed = 0;       ///< rejected by the admission policy
  std::uint64_t events_evicted = 0;    ///< displaced by a higher priority
  std::uint64_t unknown_user = 0;      ///< offers for unregistered sessions
  std::uint64_t epochs_fired = 0;
  double wall_seconds = 0.0;           ///< start() -> finish(), wall-clock
  double events_per_second = 0.0;      ///< processed / wall_seconds
  /// Per fired epoch, wall-clock filtering cost, merged across sessions in
  /// registration order (feed to eval::summarize_latencies for p50/p99).
  std::vector<double> filter_micros;
};

/// Shards many concurrent tracking sessions across worker threads: each
/// registered user (session) is pinned to one worker, each worker owns a
/// bounded ingest queue and folds its sessions' events through their
/// StreamTrackers, flushing them when the stream ends.
///
/// Determinism contract (the streaming extension of PR 2's): every session
/// owns its RNG (seeded at StreamTracker construction) and consumes its own
/// events in offer order — routing never reorders a session's events, and
/// sessions never share mutable state. Ingest queues block rather than
/// drop, so with no tenant quota (or AdmissionPolicy::kBlock) the same
/// offered sequence yields bit-identical per-user estimates at ANY worker
/// count.
/// Worker threads hold a numeric::SerialRegionGuard, so the per-step
/// candidate evaluation runs inline and the shared pool is left to
/// single-threaded callers; the service's parallelism axis is sessions.
///
/// Durability: quiesce() + checkpoint() snapshot every session as a
/// FLUXFPC1 image; a new manager re-registered with the same trackers and
/// restore()d from the image continues bit-identically (see
/// stream/supervisor.hpp for the crash-recovery loop built on top).
class TrackerManager {
 public:
  explicit TrackerManager(ManagerConfig config);
  /// Joins workers (as by finish()) if still running.
  ~TrackerManager();

  TrackerManager(const TrackerManager&) = delete;
  TrackerManager& operator=(const TrackerManager&) = delete;

  /// Registers a session before start(). Users are arbitrary ids; sessions
  /// are assigned to workers round-robin in registration order. Throws
  /// std::logic_error after start(), std::invalid_argument on a duplicate
  /// user.
  void add_session(std::uint32_t user, StreamTracker tracker,
                   SessionOptions options = {});

  /// Spins up the workers. Throws std::logic_error when already started or
  /// no session is registered.
  void start();

  /// Routes one event to its session's worker and reports the admission
  /// outcome. A full queue (or a kBlock quota) makes this call wait — it
  /// is the service's backpressure. Any thread may offer.
  PushStatus offer(const FluxEvent& event);

  /// Blocks until every event accepted so far has been folded by its
  /// worker (queues drained, workers idle). The caller must not offer()
  /// concurrently — one coordinating thread (the Supervisor pattern), or
  /// external synchronization. No-op before start() or after finish().
  void quiesce();

  /// Snapshot of every session in registration order. Quiesces first when
  /// the service is running, so the image is a consistent cut at an event
  /// boundary; callable before start() and after finish() as well. The
  /// same single-producer caveat as quiesce() applies.
  ManagerCheckpoint checkpoint();

  /// Restores a checkpoint into the registered sessions — only before
  /// start(). Each checkpointed session must match a registered session
  /// (same user, sniffer nodes, and user count), and every registered
  /// session must be covered; the worker count may differ (results stay
  /// bit-identical — the layout hint is ignored). Throws
  /// std::invalid_argument on any mismatch, std::logic_error after
  /// start().
  void restore(const ManagerCheckpoint& cp);

  /// Closes the ingest queues, wakes any producer blocked on a queue or a
  /// tenant quota, drains and joins every worker (each worker flushes its
  /// sessions' open windows), and freezes the stats. Safe to call once;
  /// offer() fails afterwards.
  void finish();

  bool started() const { return started_.load(std::memory_order_relaxed); }
  bool finished() const { return finished_.load(std::memory_order_relaxed); }
  std::size_t num_sessions() const { return sessions_.size(); }
  std::size_t workers() const { return config_.workers; }
  /// Registered user ids in registration (= checkpoint) order.
  std::vector<std::uint32_t> users() const;

  /// Epochs fired so far across all sessions (relaxed read — a live
  /// progress signal for supervision cadence, exact after quiesce()).
  std::uint64_t epochs_fired_live() const {
    return epochs_fired_live_.load(std::memory_order_relaxed);
  }
  /// Events folded so far (relaxed read — the supervisor's heartbeat).
  std::uint64_t processed_live() const {
    return processed_live_.load(std::memory_order_relaxed);
  }

  /// Per-epoch results of one session, in fired order. Valid after
  /// finish(), and after quiesce() while nothing is being offered. Throws
  /// std::invalid_argument on an unknown user.
  const std::vector<EpochResult>& results(std::uint32_t user) const;
  /// The session's tracker (final estimates, ingestion stats).
  const StreamTracker& session(std::uint32_t user) const;
  /// The session's admission attributes (tenant, priority). Throws
  /// std::invalid_argument on an unknown user.
  const SessionOptions& session_options(std::uint32_t user) const;

  /// Aggregated counters; meaningful after finish().
  ManagerStats stats() const;

 private:
  struct Session {
    std::uint32_t user = 0;
    StreamTracker tracker;
    SessionOptions options;
    std::vector<EpochResult> results;
  };

  void worker_loop(std::size_t worker);
  const Session& find_session(std::uint32_t user) const;
  /// Quota admission for one event; returns the status to propagate or
  /// kAccepted when the event may proceed to its queue. Only called when
  /// tenant_quota > 0.
  PushStatus admit(std::size_t session_index);

  ManagerConfig config_;
  std::vector<Session> sessions_;
  std::unordered_map<std::uint32_t, std::size_t> user_index_;
  std::vector<std::unique_ptr<EventQueue>> queues_;  ///< one per worker
  std::vector<std::thread> threads_;
  /// Lifecycle flags. Relaxed everywhere: the actual publication points
  /// are thread creation (start), the queue close/join handshake (finish),
  /// and the flow_mutex_ ledger — these flags only gate the fast-fail
  /// paths, where a stale read degrades to kClosed, never to a race.
  std::atomic<bool> started_{false};   // fluxfp-lint: allow(atomics-policy) -- fast-fail gate documented above; real publication is thread creation, not this flag
  std::atomic<bool> finished_{false};  // fluxfp-lint: allow(atomics-policy) -- fast-fail gate documented above; real publication is the close/join handshake
  std::chrono::steady_clock::time_point start_time_;
  ManagerStats final_stats_;
  std::atomic<std::uint64_t> unknown_user_{0};       // fluxfp-lint: allow(atomics-policy) -- monotonic stat bumped on the hot path; flow_mutex_ there would serialize workers
  std::atomic<std::uint64_t> epochs_fired_live_{0};  // fluxfp-lint: allow(atomics-policy) -- monotonic stat bumped on the hot path; flow_mutex_ there would serialize workers
  std::atomic<std::uint64_t> processed_live_{0};     // fluxfp-lint: allow(atomics-policy) -- monotonic stat bumped on the hot path; flow_mutex_ there would serialize workers

  /// Flow accounting: routed/processed totals for quiesce(), and — when a
  /// tenant quota is configured — per-tenant in-flight counts and
  /// per-session queued counts for admission. One mutex guards it all;
  /// the per-event cost is one uncontended lock, dwarfed by the SMC step.
  mutable support::Mutex flow_mutex_;
  std::condition_variable flow_cv_;
  std::uint64_t routed_flow_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  std::uint64_t processed_flow_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  std::uint64_t shed_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  bool flow_closed_ FLUXFP_GUARDED_BY(flow_mutex_) = false;
  std::size_t flow_waiters_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> tenant_in_flight_
      FLUXFP_GUARDED_BY(flow_mutex_);
  std::unordered_map<std::uint32_t, std::vector<std::size_t>>
      tenant_sessions_ FLUXFP_GUARDED_BY(flow_mutex_);
  /// Per-session queued counts, one slot per registered session.
  std::vector<std::uint64_t> queued_ FLUXFP_GUARDED_BY(flow_mutex_);
};

}  // namespace fluxfp::stream
