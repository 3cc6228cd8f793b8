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
  if (!push_run(std::span<const FluxEvent>(&event, 1), Clock::now())) {
    return false;
  }
  wait_for_room();
  return true;
}

bool EventQueue::push_run(std::span<const FluxEvent> events,
                          Clock::time_point pushed) {
  {
    support::MutexLock lock(mutex_);
    if (closed_) {
      return false;
    }
    items_.insert(items_.end(), events.begin(), events.end());
    stats_.pushed += events.size();
    stats_.max_depth = std::max(stats_.max_depth, items_.size());
    if (!events.empty()) {
      runs_.push_back({stats_.pushed, pushed});
    }
  }
  not_empty_.notify_one();
  // Obs mirror of QueueStats, recorded outside the critical section.
  FLUXFP_OBS_COUNTER_ADD("fluxfp_stream_queue_pushed_total",
                         "Events accepted by ingest queues", events.size());
  return true;
}

void EventQueue::wait_for_room() {
  support::UniqueLock lock(mutex_);
  not_full_.wait(lock.native(), [&] {
    mutex_.assert_held();  // predicate runs under the re-acquired lock
    return closed_ || items_.size() < capacity_;
  });
}

EventQueue::Take EventQueue::take_locked(
    FluxEvent* out, std::size_t max_run,
    std::vector<Clock::time_point>* completed) {
  Take take;
  if (items_.empty()) {
    return take;
  }
  const std::size_t n =
      std::min(std::max<std::size_t>(max_run, 1), items_.size());
  const bool was_full = items_.size() >= capacity_;
  const auto end = items_.begin() + static_cast<std::ptrdiff_t>(n);
  std::copy(items_.begin(), end, out);
  items_.erase(items_.begin(), end);
  stats_.popped += n;
  while (!runs_.empty() && runs_.front().end <= stats_.popped) {
    if (completed != nullptr) {
      completed->push_back(runs_.front().pushed);
    }
    runs_.pop_front();
  }
  take.events = n;
  // Producers wait for the depth to fall below the capacity, so only the
  // take that crosses it can release one.
  take.room = was_full && items_.size() < capacity_;
  return take;
}

void EventQueue::after_take(const Take& take) {
  if (take.room) {
    not_full_.notify_all();
  }
  if (take.events > 0) {
    FLUXFP_OBS_COUNTER_ADD("fluxfp_stream_queue_popped_total",
                           "Events handed to consumers", take.events);
  }
}

bool EventQueue::pop_run(std::vector<FluxEvent>& out, std::size_t max_run,
                         std::vector<Clock::time_point>& completed) {
  out.resize(std::max<std::size_t>(max_run, 1));
  completed.clear();
  Take take;
  {
    support::UniqueLock lock(mutex_);
    not_empty_.wait(lock.native(), [&] {
      mutex_.assert_held();  // predicate runs under the re-acquired lock
      return closed_ || !items_.empty();
    });
    take = take_locked(out.data(), max_run, &completed);
  }
  out.resize(take.events);
  after_take(take);
  return take.events > 0;
}

bool EventQueue::try_pop(FluxEvent& out) {
  Take take;
  {
    support::MutexLock lock(mutex_);
    take = take_locked(&out, 1, nullptr);
  }
  after_take(take);
  return take.events > 0;
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

void RoomWait::add(EventQueue* queue) { queues_.push_back(queue); }

void RoomWait::wait() const {
  for (EventQueue* queue : queues_) {
    queue->wait_for_room();
  }
}

}  // namespace fluxfp::stream
