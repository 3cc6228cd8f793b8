#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "stream/checkpoint.hpp"
#include "stream/event_queue.hpp"
#include "stream/stream_tracker.hpp"
#include "support/thread_annotations.hpp"

namespace fluxfp::stream {

/// Admission outcome of one offer()ed event.
enum class PushStatus {
  kAccepted,     ///< routed to the session's worker queue
  kUnknownUser,  ///< no such session registered
  /// The session's tenant already had tenant_quota events in flight, so
  /// this, its newest event, was shed. An accepted event is never shed
  /// afterwards.
  kShedQuota,
  kClosed,       ///< service not started, finished, or closing
};

/// Per-session admission attributes. Sessions of one tenant share that
/// tenant's quota.
struct SessionOptions {
  std::uint32_t tenant = 0;
  /// Read by nothing: admission treats a tenant's sessions alike. Kept so
  /// callers that still set it (perfbench's stream workloads) compile.
  std::uint32_t priority = 0;
};

/// Sharding and backpressure policy of the tracking service.
struct ManagerConfig {
  /// Worker threads events are sharded over (>= 1). Each session is pinned
  /// to one worker; per-session event order is preserved by routing, so
  /// the same accepted events give bit-identical estimates at any worker
  /// count.
  std::size_t workers = 1;
  /// Per-worker ingest queue bound: an offer waits until every queue it
  /// appended to is below it again. Workers take runs of at most
  /// queue_capacity / 8 events (at least 1).
  std::size_t queue_capacity = 256;
  /// Max in-flight (queued, not yet folded) events per tenant: a tenant
  /// at its quota has its next event shed (kShedQuota). 0 disables
  /// admission control entirely — the default keeps the no-quota hot path
  /// free of admission bookkeeping.
  std::size_t tenant_quota = 0;
};

/// The workers' cuts (TrackerManager::start_supervised) as one admission
/// hold of TrackerManager::offer() saw them.
struct CutsSeen {
  /// Worker cuts published since start, the start baseline not counted.
  std::uint64_t published = 0;
  /// Size of the session-wise image the newest records assemble into.
  std::uint64_t image_bytes = 0;
};

/// Shards many concurrent tracking sessions across worker threads: each
/// registered user (session) is pinned to one worker, each worker owns a
/// bounded ingest queue and folds its sessions' events through their
/// StreamTrackers, flushing them when the stream ends. A fired epoch
/// updates its session's tracker and is counted, nothing more: the
/// service keeps no per-epoch history, so its memory does not grow with
/// uptime. A caller that wants every epoch's output drives a
/// StreamTracker itself.
///
/// Determinism contract (the streaming extension of PR 2's): every session
/// owns its RNG (seeded at StreamTracker construction) and consumes its own
/// events in offer order — routing never reorders a session's events, and
/// sessions never share mutable state. Offers wait for queue room rather
/// than drop and a tenant quota sheds only at admission, so every accepted
/// event is folded, and the same sequence of accepted events yields
/// bit-identical per-user estimates at ANY worker count. With no tenant
/// quota every offered event for a registered session is accepted.
/// Worker threads hold a numeric::SerialRegionGuard, so the per-step
/// candidate evaluation runs inline and the shared pool is left to
/// single-threaded callers; the service's parallelism axis is sessions.
///
/// Durability: quiesce() + checkpoint() snapshot every session as a
/// FLUXFPC1 image; a new manager re-registered with the same trackers and
/// restore()d from the image continues bit-identically. Under supervision
/// (start_supervised, see stream/supervisor.hpp) each worker also cuts and
/// journals its own sessions on its own thread, without stopping anything.
/// Sessions share no mutable state, so any prefix of a session's own
/// events is a valid restore point: the newest cuts make a session-wise
/// image (cut_image), and restart_from() puts every session back to its
/// record and re-folds its worker's journal.
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

  /// Events a worker's journal holds at most: a worker cuts after a run
  /// that brings its journal to this many, fired epochs or not. Late,
  /// duplicate and unknown-node events fire no epoch, so without it a
  /// journal of them would grow without bound (2 MiB of 32-byte events).
  static constexpr std::size_t kMaxJournalEvents = 65536;

  /// start() under supervision: every session's record is cut now, as the
  /// baseline, and from then on each worker journals the events it folds
  /// and cuts again after a run that brings its sessions to
  /// `cut_every_epochs` (>= 1, which Supervisor checks) fired epochs since
  /// its last cut, or its journal to kMaxJournalEvents. A cut encodes the
  /// worker's sessions' FLUXFPC1 records off the flow lock, publishes them
  /// in the hold the run takes anyway, and empties the journal: the
  /// records cover every event it folded. Throws like start().
  void start_supervised(std::size_t cut_every_epochs);

  /// Routes `events` in order to their sessions' workers, writing each
  /// one's admission outcome to the same index of `status` (which must be
  /// as long). The span is admitted in one hold of the flow lock, a tenant
  /// quota included, and each worker's accepted events are appended to its
  /// queue as one run, without waiting for room. The returned RoomWait is
  /// the backpressure: the caller waits on it once it holds no lock of its
  /// own. A tenant at its quota never waits, its events are shed. Any
  /// thread may offer. `cuts`, when given, receives the workers' cuts as
  /// the admission hold saw them.
  RoomWait offer(std::span<const FluxEvent> events,
                 std::span<PushStatus> status, CutsSeen* cuts = nullptr);

  /// One-event form: offers `event`, then waits for room.
  PushStatus offer(const FluxEvent& event);

  /// Blocks until every event accepted so far has been folded by its
  /// worker (queues drained, workers idle), and the cuts of those folds
  /// published. The caller must not offer() concurrently — one
  /// coordinating thread (the Supervisor pattern), or external
  /// synchronization. No-op before start() or after finish().
  void quiesce();

  /// The session-wise image of the workers' newest cuts: every session's
  /// newest record, in registration order, assembled into one FLUXFPC1
  /// image. Sessions may be cut at different points, each record covering
  /// exactly its own session's events_taken. Empty unless started under
  /// supervision; any thread may call it.
  std::string cut_image() const;

  /// Crash recovery in place, on a supervised service the caller has
  /// quiesced: puts every session back to its record in `cut` (the decoded
  /// cut_image()), as restore() does, then re-folds every worker's journal
  /// on the calling thread, so that each session again holds every event
  /// it took. The queues and the worker threads carry on untouched.
  /// Returns the events re-folded. Same single-producer caveat as
  /// quiesce(); throws std::invalid_argument, with no session changed,
  /// where restore() would.
  std::uint64_t restart_from(const ManagerCheckpoint& cut);

  /// Snapshot of every session in registration order. Quiesces first when
  /// the service is running, so the image is a consistent cut at an event
  /// boundary; callable before start() and after finish() as well. The
  /// same single-producer caveat as quiesce() applies.
  ManagerCheckpoint checkpoint();

  /// Restores a checkpoint into the registered sessions — only before
  /// start(). Each checkpointed session must match a registered session
  /// (same user, sniffer nodes, and user count), and every registered
  /// session must be covered; the worker count is free (estimates stay
  /// bit-identical). All or nothing: these matches are checked for every
  /// session before any is applied, and a session whose state the tracker
  /// refuses rolls back the sessions applied before it. Throws
  /// std::invalid_argument on any mismatch or refused state,
  /// std::logic_error after start().
  void restore(const ManagerCheckpoint& cp);

  /// Closes the ingest queues, wakes any producer waiting for room, and
  /// drains and joins every worker (each worker flushes its sessions' open
  /// windows). Safe to call once; offer() fails afterwards.
  void finish();

  bool started() const { return started_.load(std::memory_order_relaxed); }
  bool finished() const { return finished_.load(std::memory_order_relaxed); }
  std::size_t num_sessions() const { return sessions_.size(); }
  std::size_t workers() const { return config_.workers; }
  /// Registered user ids in registration (= checkpoint) order.
  std::vector<std::uint32_t> users() const;

  /// Ingest-to-fold latency samples kept: the newest runs'.
  static constexpr std::size_t kIngestLatencySamples = 65536;
  /// Ingest-to-fold latency, in microseconds, of the newest appended runs
  /// (at most kIngestLatencySamples, in no particular order): one sample
  /// per run an offer appended to a worker queue, from that offer to the
  /// fold of the run's last event. A new manager starts with none. After
  /// quiesce() it covers every run offered so far; any thread may call it.
  std::vector<double> ingest_latency_us() const;

  /// The session's tracker: its current estimates and its ingestion
  /// counters, the service's only per-event counts (summed over the
  /// sessions, events_taken() is the accepted events folded). Valid after
  /// finish(), and after quiesce() while nothing is being offered. Throws
  /// std::invalid_argument on an unknown user.
  const StreamTracker& session(std::uint32_t user) const;
  /// The session's admission attributes. Throws std::invalid_argument on
  /// an unknown user.
  const SessionOptions& session_options(std::uint32_t user) const;

 private:
  struct Session {
    std::uint32_t user = 0;
    StreamTracker tracker;
    SessionOptions options;
  };

  void worker_loop(std::size_t worker);
  const Session& find_session(std::uint32_t user) const;
  /// restore()'s body, shared with restart_from(): checks `cp` against
  /// every registered session, then applies it all or nothing.
  void apply(const ManagerCheckpoint& cp);
  /// Quota admission under the flow lock: takes one of the tenant's
  /// in-flight slots, or returns false when it has none left. Only called
  /// with a tenant quota set.
  bool admit_locked(std::uint32_t tenant) FLUXFP_REQUIRES(flow_mutex_);
  /// Keeps one ingest-to-fold sample in the bounded ring.
  void record_latency_locked(double micros) FLUXFP_REQUIRES(flow_mutex_);

  ManagerConfig config_;
  std::vector<Session> sessions_;
  std::unordered_map<std::uint32_t, std::size_t> user_index_;
  /// One per worker. They live as long as the manager, which outlives
  /// every RoomWait of its offers (see RoomWait).
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<std::thread> threads_;
  /// Supervision (start_supervised), fixed before the workers start.
  bool supervised_ = false;
  std::size_t cut_every_epochs_ = 0;
  /// Per worker, under supervision: the events it folded since its newest
  /// cut, in fold order. Like the sessions, touched by its worker, and by
  /// restart_from() while the service is quiesced.
  std::vector<std::vector<FluxEvent>> journals_;
  /// Lifecycle flags. Relaxed everywhere: the actual publication points
  /// are thread creation (start), the queue close/join handshake (finish),
  /// and the flow_mutex_ ledger — these flags only gate the fast-fail
  /// paths, where a stale read degrades to kClosed, never to a race.
  std::atomic<bool> started_{false};   // fluxfp-lint: allow(atomics-policy) -- fast-fail gate documented above; real publication is thread creation, not this flag
  std::atomic<bool> finished_{false};  // fluxfp-lint: allow(atomics-policy) -- fast-fail gate documented above; real publication is the close/join handshake

  /// Flow accounting: routed/processed totals for quiesce(), when a tenant
  /// quota is configured the per-tenant in-flight counts for admission,
  /// the ingest-to-fold latency ring, and the published cuts. One mutex
  /// guards it all, taken once per offered span and once per folded run.
  mutable support::Mutex flow_mutex_;
  std::condition_variable flow_cv_;
  std::uint64_t routed_flow_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  std::uint64_t processed_flow_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> tenant_in_flight_
      FLUXFP_GUARDED_BY(flow_mutex_);
  /// Ingest-to-fold samples, microseconds; once full, the oldest is
  /// overwritten at latency_next_.
  std::vector<double> latency_us_ FLUXFP_GUARDED_BY(flow_mutex_);
  std::size_t latency_next_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  /// Every session's record from its worker's newest cut, in registration
  /// order; their total size; and the worker cuts published so far.
  std::vector<std::string> cut_records_ FLUXFP_GUARDED_BY(flow_mutex_);
  std::uint64_t cut_bytes_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
  std::uint64_t cuts_published_ FLUXFP_GUARDED_BY(flow_mutex_) = 0;
};

}  // namespace fluxfp::stream
