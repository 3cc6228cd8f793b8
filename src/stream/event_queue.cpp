#include "stream/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/instrument.hpp"

namespace fluxfp::stream {

std::vector<FluxEvent> merge_by_time(
    std::span<const std::vector<FluxEvent>> streams) {
  std::vector<FluxEvent> merged;
  std::size_t total = 0;
  for (const auto& s : streams) {
    total += s.size();
  }
  merged.reserve(total);
  // k-way merge by repeated minimum — k (session count) is small and the
  // stability requirement (ties keep the earlier stream first) falls out
  // of the strict < comparison in input order.
  std::vector<std::size_t> cursor(streams.size(), 0);
  for (std::size_t taken = 0; taken < total; ++taken) {
    std::size_t best = streams.size();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] >= streams[s].size()) {
        continue;
      }
      if (best == streams.size() ||
          streams[s][cursor[s]].time < streams[best][cursor[best]].time) {
        best = s;
      }
    }
    merged.push_back(streams[best][cursor[best]++]);
  }
  return merged;
}

EventQueue::EventQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("EventQueue: capacity must be >= 1");
  }
}

bool EventQueue::push(const FluxEvent& event) {
  support::UniqueLock lock(mutex_);
  not_full_.wait(lock.native(), [&] {
    mutex_.assert_held();  // predicate runs under the re-acquired lock
    return closed_ || items_.size() < capacity_;
  });
  if (closed_) {
    return false;
  }
  items_.push_back(event);
  ++stats_.pushed;
  stats_.max_depth = std::max(stats_.max_depth, items_.size());
  lock.unlock();
  not_empty_.notify_one();
  // Obs mirror of QueueStats, recorded outside the critical section.
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_pushed_total",
                         "Events accepted by ingest queues");
  return true;
}

bool EventQueue::pop(FluxEvent& out) {
  support::UniqueLock lock(mutex_);
  not_empty_.wait(lock.native(), [&] {
    mutex_.assert_held();  // predicate runs under the re-acquired lock
    return closed_ || !items_.empty();
  });
  if (items_.empty()) {
    return false;  // closed and drained
  }
  out = items_.front();
  items_.pop_front();
  ++stats_.popped;
  lock.unlock();
  not_full_.notify_one();
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_popped_total",
                         "Events handed to consumers");
  return true;
}

bool EventQueue::try_pop(FluxEvent& out) {
  support::UniqueLock lock(mutex_);
  if (items_.empty()) {
    return false;
  }
  out = items_.front();
  items_.pop_front();
  ++stats_.popped;
  lock.unlock();
  not_full_.notify_one();
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_popped_total",
                         "Events handed to consumers");
  return true;
}

bool EventQueue::evict_one(std::uint32_t user) {
  support::UniqueLock lock(mutex_);
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    if (it->user == user) {
      items_.erase(it);
      ++stats_.evicted;
      lock.unlock();
      not_full_.notify_one();
      FLUXFP_OBS_COUNTER_INC_SCHED(
          "fluxfp_stream_queue_evicted_total",
          "Targeted removals via evict_one (priority displacement)");
      return true;
    }
  }
  return false;
}

void EventQueue::close() {
  {
    support::MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool EventQueue::closed() const {
  support::MutexLock lock(mutex_);
  return closed_;
}

std::size_t EventQueue::size() const {
  support::MutexLock lock(mutex_);
  return items_.size();
}

QueueStats EventQueue::stats() const {
  support::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace fluxfp::stream
