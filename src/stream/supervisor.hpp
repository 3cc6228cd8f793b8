#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stream/checkpoint.hpp"
#include "stream/manager.hpp"

namespace fluxfp::stream {

/// Supervision policy. The supervisor never consults a clock: its cadence
/// counts fired epochs and a crash restarts at once, so a supervised
/// replay of a recorded trace makes the same decisions at any playback
/// speed.
struct SupervisorConfig {
  /// Fired epochs between supervision boundaries. Epochs are the unit of
  /// real filtering work (an SMC step each), so the snapshot cost
  /// amortizes against actual progress no matter how fast events arrive.
  /// At a boundary the supervisor cuts the shard without stopping it (see
  /// Supervisor); 0 disables periodic supervision (only the start()
  /// baseline and the finish() final image are taken).
  std::size_t checkpoint_every_epochs = 32;

  /// When non-empty, every committed checkpoint is also written here as a
  /// FLUXFPC1 file (the durable copy, replaced atomically; the supervisor
  /// restores from its in-memory image).
  std::string checkpoint_path;
};

/// Counters of one supervised run.
struct SupervisorStats {
  std::uint64_t checkpoints = 0;       ///< images committed (incl. baseline)
  std::uint64_t restarts = 0;          ///< successful restore+replay cycles
  std::uint64_t crashes_injected = 0;  ///< inject_crash() kills
  std::uint64_t replayed_events = 0;   ///< journal events re-offered
  std::uint64_t sessions_shed = 0;     ///< sessions lost to give-up
  std::uint64_t checkpoint_bytes = 0;  ///< size of the newest image
};

/// Crash-recovery loop over a TrackerManager: periodically checkpoints the
/// live shard (FLUXFPC1), journals every accepted event since the last
/// checkpoint, and restarts a crashed shard from the last good image —
/// restore, then journal replay — at the crash itself, giving up after
/// kMaxRestarts consecutive crashes with no commit between. A checkpoint
/// covers exactly the accepted events its sessions have taken
/// (events_taken summed over the image).
///
/// A checkpoint never stops the world. At a due boundary offer() asks the
/// manager for a cut (TrackerManager::request_cut: a marker behind the
/// offers so far in every worker queue) and returns; each worker encodes
/// its own sessions when it pops its marker. The first later offer() that
/// finds every part in place commits the cut: it assembles the image,
/// writes the file if configured, and truncates the journal at the cut's
/// offer. A crash before the commit discards the cut. A boundary that
/// comes due while a cut is pending first waits for it, so at most one cut
/// is in flight and the journal stays bounded.
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

  /// Consecutive crashes, with no checkpoint committed between them, that
  /// are restarted; the next one gives up and sheds every session.
  static constexpr std::size_t kMaxRestarts = 3;

  /// Throws std::invalid_argument on a null factory.
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

  /// Offers `events` in order to the supervised shard, writing each one's
  /// admission outcome to the same index of `status` (which must be as
  /// long). The live shard admits the span in one TrackerManager::offer;
  /// accepted events are journaled before this returns, so a later crash
  /// cannot lose them; a supervisor that gave up reports kClosed. Then,
  /// once per span, commits a completed cut and starts a due one (see the
  /// class comment), so a cut lands between two spans. The returned
  /// RoomWait is the backpressure, for the caller to wait on once it holds
  /// no lock; a crash meanwhile releases it. Throws
  /// std::runtime_error when a commit cannot write checkpoint_path; the
  /// cut is dropped, the events stay journaled and the previous
  /// checkpoint authoritative.
  RoomWait offer(std::span<const FluxEvent> events,
                 std::span<PushStatus> status);

  /// One-event form: offers `event`, then waits for room.
  PushStatus offer(const FluxEvent& event);

  /// Drains the live shard until every accepted event has been folded and
  /// a pending cut captured — the read barrier for mid-stream queries
  /// (netio answers QUERY_ESTIMATE and METRICS off a quiesced shard). The
  /// next offer() then commits that cut. Returns true when the shard is
  /// now idle; false before start(), after finish() and after give-up.
  /// Same single-coordinator contract as offer().
  bool quiesce();

  /// Drains and stops: finishes the shard (flushing open windows) and
  /// commits the final post-flush image, which supersedes a pending cut.
  /// After give-up there is no shard left to finish. Throws
  /// std::runtime_error when that image cannot be written.
  void finish();

  /// Test / fault hook: kill the live shard now — all state since the
  /// last checkpoint, a pending cut included, is discarded — and restart
  /// it from the newest image and the journal before returning. Gives up
  /// instead on the crash past kMaxRestarts, or when the newest image
  /// cannot decode. No-op before start(), after finish() and after
  /// give-up.
  void inject_crash();

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  /// True once the supervisor exhausted kMaxRestarts and shed its
  /// sessions; offer() reports kClosed from then on.
  bool failed() const { return failed_; }

  /// Registered user ids (checkpoint order).
  const std::vector<std::uint32_t>& users() const { return users_; }

  /// Newest committed FLUXFPC1 image (what a restart restores from).
  const std::string& checkpoint_image() const { return image_; }

  /// The live incarnation; nullptr before start() and after give-up.
  /// After finish() it is the last incarnation, whose sessions hold the
  /// final counters.
  const TrackerManager* manager() const { return manager_.get(); }

  SupervisorStats stats() const { return stats_; }

 private:
  /// Commits the assembled image of a completed cut.
  void commit_cut(ManagerCut cut);
  /// Commits an image: optional file, then the in-memory image and the
  /// journal truncated by the `journaled` entries it covers. `epochs` is
  /// the exact fired-epoch total at the image. A failed file write throws
  /// before anything is committed, so the previous checkpoint stays
  /// authoritative.
  void commit(std::string image, std::uint64_t epochs, std::size_t journaled);
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
  /// The cut in flight, as the journal length when it was requested.
  std::optional<std::size_t> cut_;

  bool started_ = false;
  bool finished_ = false;
  bool failed_ = false;
  std::size_t consecutive_failures_ = 0;
  std::uint64_t epochs_at_checkpoint_ = 0;  ///< cumulative, exact at the cut
  /// Incarnation-local epochs_fired_live() when the newest cut was
  /// requested — the cadence trigger (the live counter resets with each
  /// incarnation, the cumulative one above does not).
  std::uint64_t epochs_live_at_cut_ = 0;
};

}  // namespace fluxfp::stream
