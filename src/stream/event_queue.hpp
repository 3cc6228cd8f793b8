#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>

#include "stream/event.hpp"
#include "support/thread_annotations.hpp"

namespace fluxfp::stream {

/// Monotonic counters describing a queue's life so far. Conservation
/// invariant at any instant (under the lock): pushed == popped + evicted +
/// size().
struct QueueStats {
  std::uint64_t pushed = 0;   ///< accepted events (includes later-evicted)
  std::uint64_t popped = 0;   ///< events handed to consumers
  std::uint64_t evicted = 0;  ///< targeted removals via evict_one()
  std::size_t max_depth = 0;  ///< high-water mark of the backlog
};

/// Bounded multi-producer/single-consumer event queue. A full queue blocks
/// its producers — lossless backpressure, which is what the determinism
/// contract assumes: every accepted event is delivered, so replaying a
/// trace yields the same folding at any worker count. Load shedding, when
/// a deployment wants it, happens before the queue (TrackerManager's
/// AdmissionPolicy). Plain mutex + condition variables: the per-event cost
/// is dwarfed by the filtering work downstream, and the simple protocol is
/// trivially clean under TSan — this queue and the TrackerManager are the
/// first cross-thread mutable state in the repo.
///
/// Any thread may push; pop is intended for one consumer (more would work,
/// but per-user event ordering — the determinism anchor — is only
/// guaranteed with a single consumer per queue).
class EventQueue {
 public:
  /// `capacity` >= 1 bounds the backlog. Throws std::invalid_argument on 0.
  explicit EventQueue(std::size_t capacity);

  /// Enqueues `event`, waiting for room. Returns false only when the queue
  /// was closed while waiting or before the call.
  bool push(const FluxEvent& event);

  /// Dequeues into `out`, waiting for an event. Returns false when the
  /// queue is closed AND drained — the consumer's termination signal.
  bool pop(FluxEvent& out);

  /// Non-blocking pop; false when currently empty (queue may still be
  /// open).
  bool try_pop(FluxEvent& out);

  /// Removes the oldest queued event of `user` (admission-policy
  /// displacement: TrackerManager's kShedLowestPriority evicts a queued
  /// low-priority event to admit a higher-priority one). Returns false
  /// when no event of that user is queued. Frees a slot, so a producer
  /// waiting for room is woken.
  bool evict_one(std::uint32_t user);

  /// Closes the queue: subsequent pushes fail, blocked producers and the
  /// consumer wake up. Already-queued events remain poppable.
  void close();

  bool closed() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Snapshot of the counters (consistent, taken under the lock).
  QueueStats stats() const;

 private:
  const std::size_t capacity_;

  mutable support::Mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<FluxEvent> items_ FLUXFP_GUARDED_BY(mutex_);
  QueueStats stats_ FLUXFP_GUARDED_BY(mutex_);
  bool closed_ FLUXFP_GUARDED_BY(mutex_) = false;
};

}  // namespace fluxfp::stream
