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

bool EventQueue::push_marker() {
  {
    support::MutexLock lock(mutex_);
    if (closed_) {
      return false;
    }
    markers_.push_back(stats_.pushed);
  }
  not_empty_.notify_one();
  return true;
}

EventQueue::Popped EventQueue::take_head_locked(FluxEvent& out) {
  if (!markers_.empty() && markers_.front() == stats_.popped) {
    markers_.pop_front();
    return Popped::kMarker;
  }
  if (items_.empty()) {
    return Popped::kNone;
  }
  out = items_.front();
  items_.pop_front();
  ++stats_.popped;
  return Popped::kEvent;
}

EventQueue::Popped EventQueue::pop(FluxEvent& out) {
  support::UniqueLock lock(mutex_);
  not_empty_.wait(lock.native(), [&] {
    mutex_.assert_held();  // predicate runs under the re-acquired lock
    return closed_ || !items_.empty() || !markers_.empty();
  });
  const Popped got = take_head_locked(out);
  lock.unlock();
  if (got == Popped::kEvent) {
    not_full_.notify_one();
    FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_popped_total",
                           "Events handed to consumers");
  }
  return got;
}

EventQueue::Popped EventQueue::try_pop(FluxEvent& out) {
  support::UniqueLock lock(mutex_);
  const Popped got = take_head_locked(out);
  lock.unlock();
  if (got == Popped::kEvent) {
    not_full_.notify_one();
    FLUXFP_OBS_COUNTER_INC("fluxfp_stream_queue_popped_total",
                           "Events handed to consumers");
  }
  return got;
}

void EventQueue::close() {
  {
    support::MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
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
