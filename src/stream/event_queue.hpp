#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "stream/event.hpp"
#include "support/thread_annotations.hpp"

namespace fluxfp::stream {

/// Monotonic counters describing a queue's life so far. Conservation
/// invariant at any instant (under the lock): pushed == popped + size().
struct QueueStats {
  std::uint64_t pushed = 0;   ///< accepted events
  std::uint64_t popped = 0;   ///< events handed to consumers
  std::size_t max_depth = 0;  ///< high-water mark of the backlog
};

/// Bounded multi-producer/single-consumer event queue. A producer appends
/// a run of events without waiting, then waits for room: until a pop
/// brings the depth below the capacity. That is lossless backpressure,
/// which is what the determinism contract assumes: every accepted event is
/// delivered, so replaying a trace yields the same folding at any worker
/// count. Because the append never waits, a producer can take its own
/// locks, append, let go of them and only then wait (netio::Server waits
/// for room outside its ingest lock). The depth therefore reaches at most
/// capacity - 1 plus one run per producer. Load shedding, when a
/// deployment wants it, happens before the queue (TrackerManager's tenant
/// quota), and nothing leaves a queue but through its head. Plain mutex +
/// condition variables: the per-run cost is dwarfed by the filtering work
/// downstream, and the simple protocol is trivially clean under TSan.
///
/// Every pushed run carries its push time, and the take that dequeues the
/// run's last event hands that time to the consumer: TrackerManager's
/// ingest-to-fold latency is one exact sample per run.
///
/// Any thread may push; pop is intended for one consumer (more would work,
/// but per-user event ordering — the determinism anchor — is only
/// guaranteed with a single consumer per queue).
class EventQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// `capacity` >= 1 bounds the backlog. Throws std::invalid_argument on 0.
  explicit EventQueue(std::size_t capacity);

  /// Enqueues `event`, then waits for room: push_run() of one event stamped
  /// now, and wait_for_room(). Returns false only when the queue was closed
  /// before the call (the event is then not queued).
  bool push(const FluxEvent& event);

  /// Appends `events` in order, behind everything pushed so far, without
  /// waiting: the depth may pass the capacity. `pushed` is the run's push
  /// time, handed back by the pop that completes the run. The producer
  /// then waits for room with wait_for_room(). Returns false when the
  /// queue is closed (nothing is appended).
  bool push_run(std::span<const FluxEvent> events, Clock::time_point pushed);

  /// Waits until the depth is below the capacity or the queue is closed.
  void wait_for_room();

  /// Dequeues the oldest run into `out` (replacing its contents), waiting
  /// for an event. A run holds at most `max_run` (>= 1) events.
  /// `completed` receives (replacing its contents) the push time of every
  /// pushed run whose last event this take dequeued, oldest first. Returns
  /// false when the queue is closed AND drained — the consumer's
  /// termination signal.
  bool pop_run(std::vector<FluxEvent>& out, std::size_t max_run,
               std::vector<Clock::time_point>& completed);

  /// Non-blocking pop of the head alone; false when currently empty (the
  /// queue may still be open). Push times are dropped.
  bool try_pop(FluxEvent& out);

  /// Closes the queue: subsequent pushes fail, producers waiting for room
  /// and the consumer wake up. Already-queued events remain poppable.
  void close();

  /// Queued events.
  std::size_t size() const;

  /// Snapshot of the counters (consistent, taken under the lock).
  QueueStats stats() const;

 private:
  const std::size_t capacity_;

  mutable support::Mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  /// What one take dequeued.
  struct Take {
    std::size_t events = 0;  ///< copied to the caller's buffer
    bool room = false;       ///< the depth fell below the capacity
  };
  /// Dequeues under the lock up to `max_run` events, copied to `out`; none
  /// when nothing is queued. The push times of the runs the take completed
  /// go to `completed` unless it is null.
  Take take_locked(FluxEvent* out, std::size_t max_run,
                   std::vector<Clock::time_point>* completed)
      FLUXFP_REQUIRES(mutex_);
  /// After the lock is released: wakes the producers waiting for room
  /// when the take made some, and counts the popped events.
  void after_take(const Take& take);

  std::deque<FluxEvent> items_ FLUXFP_GUARDED_BY(mutex_);
  /// A pushed run not yet completely popped: the number of events pushed
  /// up to its end, and its push time.
  struct Run {
    std::uint64_t end = 0;
    Clock::time_point pushed;
  };
  /// Runs with an event still queued, oldest first: a run is complete once
  /// `end` events have been popped.
  std::deque<Run> runs_ FLUXFP_GUARDED_BY(mutex_);
  QueueStats stats_ FLUXFP_GUARDED_BY(mutex_);
  bool closed_ FLUXFP_GUARDED_BY(mutex_) = false;
};

/// The room a span offer waits for once it holds no lock: the queues it
/// appended to. It does not own them: the TrackerManager that does must
/// outlive the wait. A restart keeps the manager and its queues, and
/// finish() closes them, which releases the wait; netio::Server::stop()
/// joins every connection before it finishes the service.
class RoomWait {
 public:
  /// Adds `queue` to the queues to wait on.
  void add(EventQueue* queue);

  /// Waits for room on every added queue (EventQueue::wait_for_room).
  void wait() const;

 private:
  std::vector<EventQueue*> queues_;
};

}  // namespace fluxfp::stream
