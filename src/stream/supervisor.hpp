#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "stream/manager.hpp"

namespace fluxfp::stream {

/// Supervision policy. The supervisor never consults a clock: its cadence
/// counts fired epochs and a crash restarts at once, so a supervised
/// replay of a recorded trace makes the same decisions at any playback
/// speed.
struct SupervisorConfig {
  /// Fired epochs between a worker's cuts (>= 1). Epochs are the unit of
  /// real filtering work (an SMC step each), so the snapshot cost
  /// amortizes against actual progress no matter how fast events arrive.
  /// A worker whose sessions have fired this many since its last cut cuts
  /// them again, without stopping anything, and so does a worker whose
  /// journal reaches TrackerManager::kMaxJournalEvents (see
  /// TrackerManager::start_supervised).
  std::size_t checkpoint_every_epochs = 32;

  /// When non-empty, every committed checkpoint is also written here as a
  /// FLUXFPC1 file (the durable copy, replaced atomically; the supervisor
  /// restores from the workers' in-memory cuts).
  std::string checkpoint_path;
};

/// Counters of one supervised run.
struct SupervisorStats {
  std::uint64_t checkpoints = 0;       ///< images committed (incl. baseline)
  /// checkpoint_path writes that failed, at most one per worker cut (the
  /// file keeps the previous image).
  std::uint64_t checkpoint_write_failures = 0;
  std::uint64_t restarts = 0;          ///< inject_crash() restore+re-folds
  std::uint64_t replayed_events = 0;   ///< journal events re-folded
  std::uint64_t checkpoint_bytes = 0;  ///< size of the newest image
};

/// Crash-recovery loop over a TrackerManager started under supervision:
/// each worker cuts its own sessions every checkpoint_every_epochs fired
/// epochs and journals the events it folds since (see
/// TrackerManager::start_supervised), and a crashed shard restarts in
/// place from those cuts and journals at the crash itself, however often
/// it crashes.
///
/// A checkpoint never stops the world, and the supervisor takes no part in
/// cutting. Sessions share no mutable state, so any prefix of a session's
/// own events is a valid restore point: the image of the newest cuts is
/// session-wise, each session's record covering exactly its own
/// events_taken. Once per span, offer() reads the cut count the manager's
/// admission hold saw; when a worker has cut since the newest commit it
/// commits: it writes the image to checkpoint_path if one is set (only
/// then is a whole image assembled) and counts the commit. Each cut is
/// tried once: a write that fails is counted in checkpoint_write_failures,
/// the file keeps the previous image, the next cut tries again, and the
/// offer returns its admission and its RoomWait all the same. Only
/// start() and finish() throw on a failed write.
///
/// Recovery is EXACT, not approximate: a restart quiesces the shard, puts
/// every session back to its worker's newest cut, decoded from the encoded
/// FLUXFPC1 bytes, and re-folds that worker's journal, so the session
/// states of a supervised run (and hence its images and served estimates)
/// are bit-identical to an uninterrupted run's fed the same accepted
/// events, no matter when or how often the shard dies. The re-fold admits
/// nothing, so a tenant quota cannot shed a journaled event. The manager,
/// its queues and its worker threads survive a restart, so a supervised
/// shard is never down.
///
/// The factory builds the NOT-started manager once, in start(); the
/// supervisor owns start/restart. Like quiesce(), the supervisor is driven
/// by one coordinating thread: offer() and the lifecycle calls must not
/// race each other.
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

  /// Throws std::invalid_argument on a null factory or a zero
  /// checkpoint_every_epochs.
  Supervisor(ManagerFactory factory, SupervisorConfig config);

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Builds and starts the manager under supervision and commits the
  /// epoch-zero baseline image (a crash before the first cut needs
  /// something to restore). Throws std::logic_error when already started,
  /// std::invalid_argument when the factory misbehaves (null, already
  /// started, or no sessions), and std::runtime_error when the baseline
  /// cannot be written to checkpoint_path.
  void start();

  /// Offers `events` in order to the supervised shard, writing each one's
  /// admission outcome to the same index of `status` (which must be as
  /// long). The live shard admits the span in one TrackerManager::offer,
  /// whose workers journal what they fold; before start() and after
  /// finish() every event is kClosed. Then, once per span, commits when a
  /// worker has cut since the newest commit (see the class comment; a
  /// failed write is counted, not thrown). The returned RoomWait is the
  /// backpressure, for the caller to wait on once it holds no lock.
  RoomWait offer(std::span<const FluxEvent> events,
                 std::span<PushStatus> status);

  /// One-event form: offers `event`, then waits for room.
  PushStatus offer(const FluxEvent& event);

  /// Drains the live shard until every accepted event has been folded —
  /// the read barrier for mid-stream queries (netio answers QUERY_ESTIMATE
  /// and METRICS off a quiesced shard). No-op before start() and after
  /// finish(). Same single-coordinator contract as offer().
  void quiesce();

  /// Drains and stops: finishes the shard (flushing open windows) and
  /// commits the final post-flush image. Throws std::runtime_error when
  /// that image cannot be written.
  void finish();

  /// Test / fault hook: kill the live shard now — every session's state
  /// since its worker's newest cut is discarded — and restart it in place
  /// from the cuts and the journals before returning. Throws
  /// std::logic_error, before any session changes, when the cuts do not
  /// decode. No-op before start() and after finish().
  void inject_crash();

  /// The newest FLUXFPC1 image: while the shard runs, the session-wise
  /// image of the workers' newest cuts (what a restart restores from),
  /// assembled by this call; after finish() the final image. Empty before
  /// start().
  std::string checkpoint_image() const;

  /// The live manager; nullptr before start(). After finish() it is the
  /// finished manager, whose sessions hold the final counters.
  const TrackerManager* manager() const { return manager_.get(); }

  SupervisorStats stats() const { return stats_; }

 private:
  /// Writes `image` to checkpoint_path when one is set. A write that
  /// fails is counted (checkpoint_write_failures) and its error returned.
  std::optional<std::string> persist(const std::string& image);
  /// Counts a committed image of `bytes`.
  void count_commit(std::uint64_t bytes);

  ManagerFactory factory_;
  SupervisorConfig config_;
  std::unique_ptr<TrackerManager> manager_;
  /// The final image after finish().
  std::string image_;
  SupervisorStats stats_;
  /// The manager's published cut count at the newest commit.
  std::uint64_t cuts_committed_ = 0;

  bool started_ = false;
  bool finished_ = false;
};

}  // namespace fluxfp::stream
