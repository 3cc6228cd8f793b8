#include "stream/manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/parallel.hpp"
#include "obs/instrument.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include <string>

#include "obs/obs.hpp"
#endif

namespace fluxfp::stream {

TrackerManager::TrackerManager(ManagerConfig config) : config_(config) {
  if (config_.workers == 0) {
    throw std::invalid_argument("TrackerManager: workers must be >= 1");
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument(
        "TrackerManager: queue_capacity must be >= 1");
  }
}

TrackerManager::~TrackerManager() {
  if (started_.load(std::memory_order_relaxed) &&
      !finished_.load(std::memory_order_relaxed)) {
    finish();
  }
}

void TrackerManager::add_session(std::uint32_t user, StreamTracker tracker,
                                 SessionOptions options) {
  if (started_.load(std::memory_order_relaxed)) {
    throw std::logic_error(
        "TrackerManager: sessions must be registered before start()");
  }
  if (!user_index_.emplace(user, sessions_.size()).second) {
    throw std::invalid_argument("TrackerManager: duplicate user id");
  }
  sessions_.push_back({user, std::move(tracker), options, {}});
}

void TrackerManager::start() {
  if (started_.load(std::memory_order_relaxed)) {
    throw std::logic_error("TrackerManager: already started");
  }
  if (sessions_.empty()) {
    throw std::logic_error("TrackerManager: no sessions registered");
  }
  const std::size_t workers = std::min(config_.workers, sessions_.size());
  config_.workers = workers;
  queues_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    queues_.push_back(std::make_unique<EventQueue>(config_.queue_capacity));
  }
  {
    // No worker exists yet, but the admission ledger is flow-state:
    // initialize it under its mutex so there is exactly one access regime
    // (this is what the capability analysis checks).
    support::MutexLock lock(flow_mutex_);
    queued_.assign(sessions_.size(), 0);
    if (config_.tenant_quota > 0) {
      for (std::size_t i = 0; i < sessions_.size(); ++i) {
        tenant_in_flight_[sessions_[i].options.tenant] = 0;
        tenant_sessions_[sessions_[i].options.tenant].push_back(i);
      }
    }
  }
  started_.store(true, std::memory_order_relaxed);
#if defined(FLUXFP_OBS_ENABLED)
  // Shard gauges carry the worker index in the name, so the metric SET
  // depends on the layout — everything here is tagged kScheduling except
  // the layout-independent session total. set() is safe: start() runs on
  // one thread, before any worker exists.
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("fluxfp_stream_sessions", "Registered tracking sessions")
        .set(static_cast<double>(sessions_.size()));
    reg.gauge("fluxfp_stream_workers", "Worker threads sessions shard over",
              obs::Determinism::kScheduling)
        .set(static_cast<double>(workers));
    for (std::size_t w = 0; w < workers; ++w) {
      // Round-robin pinning: worker w owns sessions w, w+workers, ...
      const std::size_t owned = (sessions_.size() - w - 1) / workers + 1;
      reg.gauge("fluxfp_stream_shard" + std::to_string(w) + "_sessions",
                "Sessions pinned to this shard",
                obs::Determinism::kScheduling)
          .set(static_cast<double>(owned));
    }
  }
#endif
  start_time_ = std::chrono::steady_clock::now();
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

PushStatus TrackerManager::admit(std::size_t session_index) {
  const std::uint32_t tenant = sessions_[session_index].options.tenant;
  const std::uint32_t priority = sessions_[session_index].options.priority;
  support::UniqueLock lock(flow_mutex_);
  std::uint64_t& in_flight = tenant_in_flight_.at(tenant);
  if (in_flight >= config_.tenant_quota) {
    switch (config_.admission) {
      case AdmissionPolicy::kBlock: {
        ++flow_waiters_;
        flow_cv_.wait(lock.native(), [&] {
          flow_mutex_.assert_held();  // predicate runs under the lock
          return flow_closed_ || in_flight < config_.tenant_quota;
        });
        --flow_waiters_;
        if (flow_closed_) {
          return PushStatus::kClosed;
        }
        break;
      }
      case AdmissionPolicy::kShedNewest: {
        ++shed_;
        FLUXFP_OBS_COUNTER_INC_SCHED(
            "fluxfp_stream_quota_shed_total",
            "Events shed because their tenant was over quota");
        return PushStatus::kShedQuota;
      }
      case AdmissionPolicy::kShedLowestPriority: {
        // Victim: the tenant's lowest-priority session that still has
        // queued events and ranks strictly below the incoming session.
        const std::vector<std::size_t>& members =
            tenant_sessions_.at(tenant);
        std::size_t victim = sessions_.size();
        for (const std::size_t m : members) {
          if (queued_[m] == 0 || sessions_[m].options.priority >= priority) {
            continue;
          }
          if (victim == sessions_.size() ||
              sessions_[m].options.priority <
                  sessions_[victim].options.priority) {
            victim = m;
          }
        }
        if (victim == sessions_.size()) {
          ++shed_;
          FLUXFP_OBS_COUNTER_INC_SCHED(
              "fluxfp_stream_quota_shed_total",
              "Events shed because their tenant was over quota");
          return PushStatus::kShedQuota;
        }
        // Lock order is flow -> queue; workers take them strictly in
        // sequence (pop returns before flow is locked), so no cycle.
        if (queues_[victim % queues_.size()]->evict_one(
                sessions_[victim].user)) {
          --in_flight;
          --queued_[victim];
          // The evicted event will never be popped: take it back out of
          // the quiesce ledger so processed can still catch up to routed.
          --routed_flow_;
          FLUXFP_OBS_COUNTER_INC_SCHED(
              "fluxfp_stream_quota_evicted_total",
              "Queued events displaced by a higher-priority session");
        }
        // Evict failure means the worker drained the victim's event in
        // the meantime — the quota has room either way.
        break;
      }
    }
  }
  ++in_flight;
  ++queued_[session_index];
  return PushStatus::kAccepted;
}

PushStatus TrackerManager::offer(const FluxEvent& event) {
  if (!started_.load(std::memory_order_relaxed) ||
      finished_.load(std::memory_order_relaxed)) {
    return PushStatus::kClosed;
  }
  const auto it = user_index_.find(event.user);
  if (it == user_index_.end()) {
    unknown_user_.fetch_add(1, std::memory_order_relaxed);
    FLUXFP_OBS_COUNTER_INC("fluxfp_stream_unknown_user_total",
                           "Pushes for sessions never registered");
    return PushStatus::kUnknownUser;
  }
  const std::size_t idx = it->second;
  const bool quota = config_.tenant_quota > 0;
  if (quota) {
    const PushStatus admitted = admit(idx);
    if (admitted != PushStatus::kAccepted) {
      return admitted;
    }
  }
  if (!queues_[idx % queues_.size()]->push(event)) {
    if (quota) {
      support::MutexLock lock(flow_mutex_);
      --tenant_in_flight_.at(sessions_[idx].options.tenant);
      --queued_[idx];
    }
    return PushStatus::kClosed;
  }
  {
    support::MutexLock lock(flow_mutex_);
    ++routed_flow_;
  }
  return PushStatus::kAccepted;
}

void TrackerManager::worker_loop(std::size_t worker) {
  // Candidate evaluation inside the SMC steps runs serially inline on this
  // thread: the service's parallelism axis is sessions, not candidates,
  // and the shared pool admits one external caller at a time.
  numeric::SerialRegionGuard serial;
  EventQueue& queue = *queues_[worker];
  const bool quota = config_.tenant_quota > 0;
  FluxEvent event;
  while (queue.pop(event)) {
    // Routing guarantees the session belongs to this worker.
    const std::size_t idx = user_index_.at(event.user);
    Session& s = sessions_[idx];
    auto fired = s.tracker.on_event(event);
    epochs_fired_live_.fetch_add(fired.size(), std::memory_order_relaxed);
    for (auto& r : fired) {
      s.results.push_back(std::move(r));
    }
    processed_live_.fetch_add(1, std::memory_order_relaxed);
    // Flow accounting AFTER the results landed: a quiesce() that observes
    // processed == routed therefore also observes every result (the mutex
    // handshake publishes them).
    {
      support::MutexLock lock(flow_mutex_);
      ++processed_flow_;
      if (quota) {
        --tenant_in_flight_.at(s.options.tenant);
        --queued_[idx];
      }
    }
    flow_cv_.notify_all();
  }
  // Stream over: fire every still-open window, in session order.
  for (std::size_t i = worker; i < sessions_.size();
       i += queues_.size()) {
    Session& s = sessions_[i];
    auto fired = s.tracker.flush();
    epochs_fired_live_.fetch_add(fired.size(), std::memory_order_relaxed);
    for (auto& r : fired) {
      s.results.push_back(std::move(r));
    }
  }
}

void TrackerManager::quiesce() {
  if (!started_.load(std::memory_order_relaxed) ||
      finished_.load(std::memory_order_relaxed)) {
    return;
  }
  support::UniqueLock lock(flow_mutex_);
  flow_cv_.wait(lock.native(), [&] {
    flow_mutex_.assert_held();  // predicate runs under the lock
    return processed_flow_ == routed_flow_;
  });
}

ManagerCheckpoint TrackerManager::checkpoint() {
  quiesce();  // no-op unless running
  ManagerCheckpoint cp;
  cp.workers = static_cast<std::uint32_t>(config_.workers);
  cp.sessions.reserve(sessions_.size());
  for (const Session& s : sessions_) {
    SessionCheckpoint sc;
    sc.user = s.user;
    sc.num_users = static_cast<std::uint32_t>(s.tracker.num_users());
    const std::vector<std::size_t>& nodes = s.tracker.sniffer_nodes();
    sc.sniffer_nodes.assign(nodes.begin(), nodes.end());
    sc.state = s.tracker.save_state();
    cp.sessions.push_back(std::move(sc));
  }
  return cp;
}

void TrackerManager::restore(const ManagerCheckpoint& cp) {
  if (started_.load(std::memory_order_relaxed)) {
    throw std::logic_error(
        "TrackerManager: restore() must run before start()");
  }
  if (cp.sessions.size() != sessions_.size()) {
    throw std::invalid_argument(
        "TrackerManager: checkpoint session count does not match the "
        "registered sessions");
  }
  // Validate the whole image against the registered sessions first, then
  // apply — a mismatch must not leave some sessions restored and others
  // fresh.
  std::vector<std::size_t> targets;
  targets.reserve(cp.sessions.size());
  for (const SessionCheckpoint& sc : cp.sessions) {
    const auto it = user_index_.find(sc.user);
    if (it == user_index_.end()) {
      throw std::invalid_argument(
          "TrackerManager: checkpoint session for an unregistered user");
    }
    const StreamTracker& t = sessions_[it->second].tracker;
    const std::vector<std::size_t>& nodes = t.sniffer_nodes();
    const bool nodes_match =
        sc.sniffer_nodes.size() == nodes.size() &&
        std::equal(nodes.begin(), nodes.end(), sc.sniffer_nodes.begin(),
                   [](std::size_t a, std::uint64_t b) {
                     return static_cast<std::uint64_t>(a) == b;
                   });
    if (!nodes_match || sc.num_users != t.num_users()) {
      throw std::invalid_argument(
          "TrackerManager: checkpoint session does not match the "
          "registered deployment (sniffer set or user count)");
    }
    targets.push_back(it->second);
  }
  for (std::size_t i = 0; i < cp.sessions.size(); ++i) {
    sessions_[targets[i]].tracker.restore_state(cp.sessions[i].state);
  }
}

void TrackerManager::finish() {
  if (!started_.load(std::memory_order_relaxed) ||
      finished_.load(std::memory_order_relaxed)) {
    return;
  }
  {
    // Wake producers blocked on a tenant quota before closing the queues,
    // so shutdown never waits on a pop that will not come.
    support::MutexLock lock(flow_mutex_);
    flow_closed_ = true;
  }
  flow_cv_.notify_all();
  for (auto& q : queues_) {
    q->close();
  }
  for (std::thread& t : threads_) {
    t.join();
  }
  finished_.store(true, std::memory_order_relaxed);
  const auto end = std::chrono::steady_clock::now();
  final_stats_.wall_seconds =
      std::chrono::duration<double>(end - start_time_).count();
  for (const auto& q : queues_) {
    const QueueStats qs = q->stats();
    final_stats_.events_routed += qs.pushed;
    final_stats_.events_processed += qs.popped;
    final_stats_.events_evicted += qs.evicted;
  }
#if defined(FLUXFP_OBS_ENABLED)
  if (obs::enabled()) {
    for (std::size_t w = 0; w < queues_.size(); ++w) {
      obs::MetricsRegistry::global()
          .gauge("fluxfp_stream_shard" + std::to_string(w) +
                     "_queue_max_depth",
                 "High-water mark of this shard's ingest backlog",
                 obs::Determinism::kScheduling)
          .set(static_cast<double>(queues_[w]->stats().max_depth));
    }
  }
#endif
  final_stats_.unknown_user = unknown_user_.load(std::memory_order_relaxed);
  {
    // Copy out under the lock; final_stats_ itself is coordinator-owned
    // (workers are joined), so it is not flow-state and stays unguarded.
    std::uint64_t shed = 0;
    {
      support::MutexLock lock(flow_mutex_);
      shed = shed_;
    }
    final_stats_.events_shed = shed;
  }
  for (const Session& s : sessions_) {
    const StreamStats& st = s.tracker.stats();
    final_stats_.epochs_fired += st.epochs_fired;
    final_stats_.filter_micros.insert(final_stats_.filter_micros.end(),
                                      st.filter_micros.begin(),
                                      st.filter_micros.end());
  }
  final_stats_.events_per_second =
      final_stats_.wall_seconds > 0.0
          ? static_cast<double>(final_stats_.events_processed) /
                final_stats_.wall_seconds
          : 0.0;
}

std::vector<std::uint32_t> TrackerManager::users() const {
  std::vector<std::uint32_t> out;
  out.reserve(sessions_.size());
  for (const Session& s : sessions_) {
    out.push_back(s.user);
  }
  return out;
}

const TrackerManager::Session& TrackerManager::find_session(
    std::uint32_t user) const {
  const auto it = user_index_.find(user);
  if (it == user_index_.end()) {
    throw std::invalid_argument("TrackerManager: unknown user");
  }
  return sessions_[it->second];
}

const std::vector<EpochResult>& TrackerManager::results(
    std::uint32_t user) const {
  return find_session(user).results;
}

const StreamTracker& TrackerManager::session(std::uint32_t user) const {
  return find_session(user).tracker;
}

const SessionOptions& TrackerManager::session_options(
    std::uint32_t user) const {
  return find_session(user).options;
}

ManagerStats TrackerManager::stats() const { return final_stats_; }

}  // namespace fluxfp::stream
