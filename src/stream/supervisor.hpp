#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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
  /// Fired epochs between supervision boundaries. Epochs are the unit of
  /// real filtering work (an SMC step each), so the snapshot cost
  /// amortizes against actual progress no matter how fast events arrive.
  /// At a boundary the supervisor cuts the shard without stopping it (see
  /// Supervisor); 0 disables periodic supervision (only the start()
  /// baseline and the finish() final image are taken).
  std::size_t checkpoint_every_epochs = 32;

  /// Heartbeat: with work pending, the shard must fold at least one event
  /// every this many virtual seconds, or it is declared stalled and
  /// restarted. 0 disables the heartbeat. Meaningful for paced (live-rate)
  /// ingestion, where virtual time tracks arrival time; a max-speed trace
  /// replay outruns the workers by design, so there the deadline must
  /// exceed the trace's whole time span (or stay 0). In-process recovery
  /// assumes the worker can still be joined (queue-level stalls); a
  /// thread wedged inside a filter step needs process-level supervision,
  /// which is out of scope here.
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
  /// FLUXFPC1 file (the durable copy, replaced atomically; the supervisor
  /// restores from its in-memory image).
  std::string checkpoint_path;

  /// Injected crash schedule over fired epochs (sim/faults.hpp), judged
  /// on each cut's exact epoch total when it commits. The soak tests
  /// drive kill/restore cycles through this.
  sim::ShardCrashPlan fault;
};

/// Counters of one supervised run.
struct SupervisorStats {
  std::uint64_t checkpoints = 0;       ///< images committed (incl. baseline)
  std::uint64_t restarts = 0;          ///< successful restore+replay cycles
  std::uint64_t crashes_injected = 0;  ///< fault plan + inject_crash()
  std::uint64_t stalls_detected = 0;   ///< heartbeat lapses
  std::uint64_t replayed_events = 0;   ///< journal events re-offered
  std::uint64_t events_deferred = 0;   ///< journaled while the shard was down
  std::uint64_t sessions_shed = 0;     ///< sessions lost to give-up
  std::uint64_t checkpoint_bytes = 0;  ///< size of the newest image
  /// offer() calls the newest image covers: the offers made before its
  /// cut (all of them for the final image). A caller that replays a
  /// recorded stream resumes after this many.
  std::uint64_t offers_covered = 0;
};

/// Crash-recovery loop over a TrackerManager: periodically checkpoints the
/// live shard (FLUXFPC1), journals every accepted event since the last
/// checkpoint, detects crashed/stalled shards, and restarts them from the
/// last good image — restore, then journal replay — with bounded retries
/// and exponential backoff in virtual time.
///
/// A checkpoint never stops the world. At a due boundary offer() asks the
/// manager for a cut (TrackerManager::request_cut: a marker behind the
/// offers so far in every worker queue) and returns; each worker encodes
/// its own sessions when it pops its marker. The first later offer() that
/// finds every part in place commits the cut: it judges the fault plan on
/// the cut's exact epoch total, assembles the image, writes the file if
/// configured, and truncates the journal at the cut's offer. A crash
/// before the commit discards the cut. A boundary that comes due while a
/// cut is pending first waits for it, so at most one cut is in flight and
/// the journal stays bounded.
///
/// Recovery is EXACT, not approximate: a cut is consistent (every queue
/// is FIFO, so each session's image holds exactly its events offered
/// before the cut), and checkpoint + journal always reconstruct the
/// precise accepted-event prefix, so the session states of a supervised
/// run (and hence its images and served estimates) are bit-identical to
/// an uninterrupted run's fed the same accepted events, no matter when or
/// how often the shard dies. A tenant quota does not change that: the
/// replay re-offers a journaled event the quota sheds once the shard is
/// quiesced, so no accepted event is lost.
/// Every restart round-trips the state through encoded FLUXFPC1 bytes —
/// the serialized format, not the in-memory structs, is what recovery
/// relies on.
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
  /// restore). Throws std::logic_error when already started,
  /// std::invalid_argument when the factory misbehaves (null, already
  /// started, or no sessions), and std::runtime_error when the baseline
  /// cannot be written to checkpoint_path.
  void start();

  /// Offers one event to the supervised shard. Accepted events are
  /// journaled before this returns, so a later crash cannot lose them.
  /// While the shard is down (backoff), events for known users are
  /// deferred — journaled and reported kAccepted — and replayed at
  /// restart; a supervisor that gave up reports kClosed. Commits a
  /// completed cut and starts a due one (see the class comment). Throws
  /// std::runtime_error when a commit cannot write checkpoint_path; the
  /// cut is dropped, the event stays journaled and the previous
  /// checkpoint authoritative.
  PushStatus offer(const FluxEvent& event);

  /// Drains the live shard until every accepted event has been folded and
  /// a pending cut captured — the read barrier for mid-stream queries
  /// (netio answers QUERY_ESTIMATE and METRICS off a quiesced shard). The
  /// next offer() then commits that cut. Returns true when the shard is
  /// up and now idle; false while it is down (backoff) or after give-up —
  /// journaled deferred events are NOT folded until the restart. Same
  /// single-coordinator contract as offer().
  bool quiesce();

  /// Drains and stops: restarts the shard if it is down (the final drain
  /// ignores the backoff clock), finishes it (flushing open windows), and
  /// commits the final post-flush image, which supersedes a pending cut.
  /// Throws std::runtime_error when that image cannot be written.
  void finish();

  /// Test / fault hook: kill the live shard now, exactly as a scheduled
  /// crash would — all state since the last checkpoint, a pending cut
  /// included, is discarded. No-op while the shard is already down.
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

  /// Newest committed FLUXFPC1 image (what a restart restores from).
  const std::string& checkpoint_image() const { return image_; }

  /// The live incarnation, or nullptr while the shard is down. Exposes
  /// final ManagerStats of the last incarnation after finish().
  const TrackerManager* manager() const { return manager_.get(); }

  SupervisorStats stats() const { return stats_; }

 private:
  /// The cut in flight: requested after `journaled` journal entries and
  /// `offers` offer() calls.
  struct PendingCut {
    std::size_t journaled = 0;
    std::uint64_t offers = 0;
  };

  /// Judges the fault plan on the cut's epochs, then either kills the
  /// shard (false) or commits the assembled image (true).
  bool commit_cut(ManagerCut cut);
  /// Commits an image: optional file, then the in-memory image and the
  /// journal truncated by the `journaled` entries it covers. `epochs` is
  /// the exact fired-epoch total at the image. A failed file write throws
  /// before anything is committed, so the previous checkpoint stays
  /// authoritative.
  void commit(std::string image, std::uint64_t epochs, std::size_t journaled,
              std::uint64_t offers);
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
  /// Accepted events since the newest checkpoint, in offer order.
  std::vector<FluxEvent> journal_;
  std::string image_;  ///< newest FLUXFPC1 bytes
  SupervisorStats stats_;
  std::optional<PendingCut> cut_;

  bool started_ = false;
  bool finished_ = false;
  bool failed_ = false;
  std::size_t consecutive_failures_ = 0;
  double vnow_ = 0.0;        ///< newest event time seen
  double restart_at_ = 0.0;  ///< backoff gate while the shard is down
  std::uint64_t offers_ = 0;  ///< offer() calls since start()
  std::uint64_t routed_since_manager_ = 0;  ///< offers accepted this incarnation
  std::uint64_t last_processed_seen_ = 0;
  double last_progress_vtime_ = 0.0;
  std::uint64_t epochs_at_checkpoint_ = 0;  ///< cumulative, exact at the cut
  /// Incarnation-local epochs_fired_live() when the newest cut was
  /// requested — the cadence trigger (the live counter resets with each
  /// incarnation, the cumulative one above does not).
  std::uint64_t epochs_live_at_cut_ = 0;
};

}  // namespace fluxfp::stream
