#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/faults.hpp"
#include "stream/checkpoint.hpp"
#include "stream/manager.hpp"

namespace fluxfp::stream {

/// Supervision policy. All deadlines and backoffs are *virtual time*
/// (event timestamps) — the supervisor never consults a wall clock, so a
/// supervised replay of a recorded trace makes the same decisions at any
/// playback speed.
struct SupervisorConfig {
  /// Accepted events between supervision boundaries. At each boundary the
  /// shard is quiesced, the fault plan and health probe are evaluated, and
  /// — when the shard survives them — a fresh checkpoint is committed.
  /// 0 (the default) leaves the cadence to checkpoint_every_epochs: an
  /// event is microseconds of routing, while a snapshot is a quiesce plus
  /// a full state encode, so counting raw events makes supervision cost
  /// scale with ingest rate instead of with work done. Set it when a test
  /// or tool needs boundaries at exact event counts.
  std::size_t checkpoint_every_events = 0;

  /// Fired epochs between supervision boundaries — the production cadence.
  /// Epochs are the unit of real filtering work (an SMC step each), so the
  /// snapshot cost amortizes against actual progress no matter how fast
  /// events arrive. Both cadences 0 disables periodic supervision (only
  /// the start() baseline and the finish() final image are taken).
  std::size_t checkpoint_every_epochs = 32;

  /// Heartbeat: with work pending, the shard must fold at least one event
  /// every this many virtual seconds, or it is declared stalled and
  /// restarted. 0 disables the heartbeat. Meaningful for paced (live-rate)
  /// ingestion, where virtual time tracks arrival time; a max-speed trace
  /// replay outruns the workers by design, so there the deadline must
  /// exceed the trace's whole time span (or stay 0). In-process recovery
  /// assumes the worker can still be joined (queue-level stalls,
  /// probe-detected divergence); a thread wedged inside a filter step
  /// needs process-level supervision, which is out of scope here.
  double heartbeat_deadline = 0.0;

  /// Consecutive failed incarnations (no checkpoint committed in between)
  /// tolerated before the supervisor gives up and sheds every session.
  std::size_t max_restarts = 3;

  /// Exponential backoff between a crash and its restart, in virtual
  /// seconds: the k-th consecutive failure waits
  /// backoff_base * backoff_factor^(k-1). Events offered while the shard
  /// is down are journaled (not lost) and replayed at restart.
  double backoff_base = 1.0;
  double backoff_factor = 2.0;

  /// When non-empty, every committed checkpoint is also written here as a
  /// FLUXFPC1 file (the durable copy; the supervisor restores from its
  /// in-memory image).
  std::string checkpoint_path;

  /// Injected crash schedule over fired epochs (sim/faults.hpp). The
  /// soak tests drive kill/restore cycles through this.
  sim::ShardCrashPlan fault;

  /// Divergence probe, evaluated on the quiesced shard at each
  /// supervision boundary; returning false declares the shard unhealthy
  /// (e.g. non-finite estimates) and forces a restart from the last good
  /// checkpoint. Null = always healthy.
  std::function<bool(const TrackerManager&)> health_probe;
};

/// Counters of one supervised run.
struct SupervisorStats {
  std::uint64_t checkpoints = 0;       ///< images committed (incl. baseline)
  std::uint64_t restarts = 0;          ///< successful restore+replay cycles
  std::uint64_t crashes_injected = 0;  ///< fault plan + inject_crash()
  std::uint64_t stalls_detected = 0;   ///< heartbeat lapses + failed probes
  std::uint64_t replayed_events = 0;   ///< journal events re-offered
  std::uint64_t events_deferred = 0;   ///< journaled while the shard was down
  std::uint64_t sessions_shed = 0;     ///< sessions lost to give-up
  std::uint64_t checkpoint_bytes = 0;  ///< size of the newest image
};

/// Crash-recovery loop over a TrackerManager: periodically checkpoints the
/// live shard (FLUXFPC1), journals every accepted event since the last
/// checkpoint, detects crashed/stalled/diverged shards, and restarts them
/// from the last good image — restore, then journal replay — with bounded
/// retries and exponential backoff in virtual time.
///
/// Recovery is EXACT, not approximate: a checkpoint is a consistent cut at
/// an event boundary (quiesce), and checkpoint + journal always
/// reconstruct the precise accepted-event prefix, so the results of a
/// supervised run are bit-identical to an uninterrupted run no matter
/// when or how often the shard dies (under lossless admission; shedding
/// policies lose this by design). Every restart round-trips the state
/// through encoded FLUXFPC1 bytes — the serialized format, not the
/// in-memory structs, is what recovery relies on.
///
/// The factory builds a fresh, NOT-started manager with the same sessions
/// (same construction inputs: model, sniffers, config, seed) each time —
/// the supervisor owns start/restore/replay. Like quiesce(), the
/// supervisor is driven by one coordinating thread: offer() and the
/// lifecycle calls must not race each other.
///
/// Threading: the Supervisor deliberately owns no mutex — the
/// single-coordinator contract above IS its synchronization. Where the
/// coordinator role is shared across threads (netio::Server), the
/// Supervisor object itself is declared FLUXFP_GUARDED_BY the caller's
/// serializing mutex (Server::ingest_mutex_), so Clang's capability
/// analysis rejects any unserialized interaction at compile time instead
/// of leaving the contract to this comment.
class Supervisor {
 public:
  using ManagerFactory = std::function<std::unique_ptr<TrackerManager>()>;

  /// Throws std::invalid_argument on a null factory or a non-positive
  /// backoff/cadence combination that cannot make progress.
  Supervisor(ManagerFactory factory, SupervisorConfig config);

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Builds and starts the first incarnation and commits the epoch-zero
  /// baseline image (a crash before the first boundary needs something to
  /// restore). Throws std::logic_error when already started, and
  /// std::invalid_argument when the factory misbehaves (null, already
  /// started, or no sessions).
  void start();

  /// Offers one event to the supervised shard. Accepted events are
  /// journaled before this returns, so a later crash cannot lose them.
  /// While the shard is down (backoff), events for known users are
  /// deferred — journaled and reported kAccepted — and replayed at
  /// restart; a supervisor that gave up reports kClosed.
  PushStatus offer(const FluxEvent& event);

  /// Drains the live shard until every accepted event has been folded —
  /// the read barrier for mid-stream queries (netio answers QUERY_ESTIMATE
  /// and METRICS off a quiesced shard). Returns true when the shard is up
  /// and now idle; false while it is down (backoff) or after give-up —
  /// journaled deferred events are NOT folded until the restart. Same
  /// single-coordinator contract as offer().
  bool quiesce();

  /// Drains and stops: restarts the shard if it is down (the final drain
  /// ignores the backoff clock), finishes it (flushing open windows),
  /// commits all remaining results, and takes the final post-flush image.
  void finish();

  /// Test / fault hook: kill the live shard now, exactly as a scheduled
  /// crash would — all state since the last checkpoint is discarded. No-op
  /// while the shard is already down.
  void inject_crash();

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  /// True once the supervisor exhausted max_restarts and shed its
  /// sessions; offer() reports kClosed from then on.
  bool failed() const { return failed_; }
  /// True while the shard is between a crash and its backoff-gated
  /// restart.
  bool shard_down() const { return started_ && manager_ == nullptr; }

  /// Registered user ids (checkpoint order).
  const std::vector<std::uint32_t>& users() const { return users_; }

  /// Committed per-epoch results of one session, in fired order —
  /// complete after finish(). Throws std::invalid_argument on an unknown
  /// user.
  const std::vector<EpochResult>& results(std::uint32_t user) const;

  /// Newest committed FLUXFPC1 image (what a restart restores from).
  const std::string& checkpoint_image() const { return image_; }

  /// The live incarnation, or nullptr while the shard is down. Exposes
  /// final ManagerStats of the last incarnation after finish().
  const TrackerManager* manager() const { return manager_.get(); }

  SupervisorStats stats() const { return stats_; }

 private:
  /// Quiesce, evaluate fault plan + health probe, then either kill the
  /// shard or commit a checkpoint. Requires a live shard.
  void supervise();
  /// Commits a checkpoint of the (quiesced) live shard: results, encoded
  /// image, optional file, journal truncation. `epochs` is the exact
  /// fired-epoch total at the cut.
  void commit_checkpoint(std::uint64_t epochs);
  /// Appends the live shard's not-yet-committed results to committed_.
  void commit_results();
  /// Writes image_ to config_.checkpoint_path (the durable copy).
  void write_image_file() const;
  /// Kills the live shard and arms the backoff clock (or gives up).
  void crash_shard();
  void give_up();
  /// Decodes the newest image into a fresh incarnation and replays the
  /// journal. False when recovery is impossible (gives up internally).
  bool try_restart();
  /// Exact fired-epoch total across sessions; requires a quiesced shard.
  std::uint64_t exact_epochs() const;

  ManagerFactory factory_;
  SupervisorConfig config_;
  std::unique_ptr<TrackerManager> manager_;
  std::vector<std::uint32_t> users_;
  /// Results committed up to the newest checkpoint (crash-durable).
  std::unordered_map<std::uint32_t, std::vector<EpochResult>> committed_;
  /// Per user: how many of the live incarnation's results are already in
  /// committed_ (resets to 0 at each restart).
  std::unordered_map<std::uint32_t, std::size_t> manager_committed_;
  /// Accepted events since the newest checkpoint, in offer order.
  std::vector<FluxEvent> journal_;
  std::string image_;  ///< newest FLUXFPC1 bytes
  SupervisorStats stats_;

  bool started_ = false;
  bool finished_ = false;
  bool failed_ = false;
  std::size_t consecutive_failures_ = 0;
  double vnow_ = 0.0;        ///< newest event time seen
  double restart_at_ = 0.0;  ///< backoff gate while the shard is down
  std::uint64_t accepted_since_check_ = 0;
  std::uint64_t routed_since_manager_ = 0;  ///< offers accepted this incarnation
  std::uint64_t last_processed_seen_ = 0;
  double last_progress_vtime_ = 0.0;
  std::uint64_t epochs_at_checkpoint_ = 0;  ///< cumulative, exact at the cut
  /// Incarnation-local epochs_fired_live() at the last checkpoint — the
  /// epoch-cadence trigger (the live counter resets with each incarnation,
  /// the cumulative one above does not).
  std::uint64_t epochs_live_at_checkpoint_ = 0;
};

}  // namespace fluxfp::stream
