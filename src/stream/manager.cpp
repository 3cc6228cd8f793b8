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

namespace {

SessionCheckpoint snapshot(std::uint32_t user, const StreamTracker& t) {
  SessionCheckpoint sc;
  sc.user = user;
  const std::vector<std::size_t>& nodes = t.sniffer_nodes();
  sc.sniffer_nodes.assign(nodes.begin(), nodes.end());
  sc.state = t.save_state();
  return sc;
}

}  // namespace

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
  sessions_.push_back({user, std::move(tracker), options});
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
  if (config_.tenant_quota > 0) {
    // No worker exists yet, but the admission ledger is flow-state:
    // initialize it under its mutex so there is exactly one access regime
    // (this is what the capability analysis checks).
    support::MutexLock lock(flow_mutex_);
    for (const Session& s : sessions_) {
      tenant_in_flight_[s.options.tenant] = 0;
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
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

bool TrackerManager::admit(std::uint32_t tenant) {
  support::MutexLock lock(flow_mutex_);
  std::uint64_t& in_flight = tenant_in_flight_.at(tenant);
  if (in_flight >= config_.tenant_quota) {
    return false;
  }
  ++in_flight;
  return true;
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
  if (quota && !admit(sessions_[idx].options.tenant)) {
    return PushStatus::kShedQuota;
  }
  if (!queues_[idx % queues_.size()]->push(event)) {
    if (quota) {
      support::MutexLock lock(flow_mutex_);
      --tenant_in_flight_.at(sessions_[idx].options.tenant);
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
  for (;;) {
    const EventQueue::Popped got = queue.pop(event);
    if (got == EventQueue::Popped::kNone) {
      break;
    }
    if (got == EventQueue::Popped::kMarker) {
      capture_cut(worker);
      continue;
    }
    // Routing guarantees the session belongs to this worker.
    Session& s = sessions_[user_index_.at(event.user)];
    epochs_fired_live_.fetch_add(s.tracker.on_event(event).size(),
                                 std::memory_order_relaxed);
    processed_live_.fetch_add(1, std::memory_order_relaxed);
    // Flow accounting AFTER the fold: a quiesce() that observes
    // processed == routed therefore also observes every session's state
    // (the mutex handshake publishes it).
    {
      support::MutexLock lock(flow_mutex_);
      ++processed_flow_;
      if (quota) {
        --tenant_in_flight_.at(s.options.tenant);
      }
    }
    flow_cv_.notify_all();
  }
  // Stream over: fire every still-open window, in session order.
  for (std::size_t i = worker; i < sessions_.size();
       i += queues_.size()) {
    epochs_fired_live_.fetch_add(sessions_[i].tracker.flush().size(),
                                 std::memory_order_relaxed);
  }
}

void TrackerManager::capture_cut(std::size_t worker) {
  // Encoding runs off the lock: this worker alone touches its sessions.
  const std::size_t stride = queues_.size();
  std::vector<std::string> records;
  std::uint64_t epochs = 0;
  for (std::size_t i = worker; i < sessions_.size(); i += stride) {
    const Session& s = sessions_[i];
    records.push_back(encode_session_record(snapshot(s.user, s.tracker)));
    epochs += s.tracker.stats().epochs_fired;
  }
  {
    support::MutexLock lock(flow_mutex_);
    std::size_t k = 0;
    for (std::size_t i = worker; i < sessions_.size(); i += stride) {
      cut_->records[i] = std::move(records[k++]);
    }
    cut_->epochs += epochs;
    --cut_parts_missing_;
    ++processed_flow_;
  }
  flow_cv_.notify_all();
}

void TrackerManager::request_cut() {
  if (!started_.load(std::memory_order_relaxed) ||
      finished_.load(std::memory_order_relaxed)) {
    throw std::logic_error("TrackerManager: request_cut() needs a running "
                           "service");
  }
  {
    support::MutexLock lock(flow_mutex_);
    if (cut_) {
      throw std::logic_error("TrackerManager: a cut is already pending");
    }
    cut_.emplace();
    cut_->records.resize(sessions_.size());
    cut_parts_missing_ = queues_.size();
    routed_flow_ += queues_.size();
  }
  for (auto& q : queues_) {
    q->push_marker();
  }
}

std::optional<ManagerCut> TrackerManager::take_cut(bool wait) {
  support::UniqueLock lock(flow_mutex_);
  if (wait) {
    flow_cv_.wait(lock.native(), [&] {
      flow_mutex_.assert_held();  // predicate runs under the lock
      return !cut_ || cut_parts_missing_ == 0;
    });
  }
  if (!cut_ || cut_parts_missing_ != 0) {
    return std::nullopt;
  }
  std::optional<ManagerCut> cut = std::move(cut_);
  cut_.reset();
  return cut;
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
  cp.sessions.reserve(sessions_.size());
  for (const Session& s : sessions_) {
    cp.sessions.push_back(snapshot(s.user, s.tracker));
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
    if (!nodes_match || sc.state.smc.users.size() != t.num_users()) {
      throw std::invalid_argument(
          "TrackerManager: checkpoint session does not match the "
          "registered deployment (sniffer set or user count)");
    }
    targets.push_back(it->second);
  }
  // restore_state() refuses values the filter cannot produce without
  // touching its tracker; the sessions applied before it roll back from
  // their saved states, so a refused image leaves every session as it was.
  std::vector<StreamTrackerState> saved;
  saved.reserve(targets.size());
  try {
    for (std::size_t i = 0; i < cp.sessions.size(); ++i) {
      StreamTracker& t = sessions_[targets[i]].tracker;
      saved.push_back(t.save_state());
      t.restore_state(cp.sessions[i].state);
    }
  } catch (...) {
    for (std::size_t i = 0; i < saved.size(); ++i) {
      sessions_[targets[i]].tracker.restore_state(saved[i]);
    }
    throw;
  }
}

void TrackerManager::finish() {
  if (!started_.load(std::memory_order_relaxed) ||
      finished_.load(std::memory_order_relaxed)) {
    return;
  }
  for (auto& q : queues_) {
    q->close();
  }
  for (std::thread& t : threads_) {
    t.join();
  }
  finished_.store(true, std::memory_order_relaxed);
  for (const auto& q : queues_) {
    const QueueStats qs = q->stats();
    final_stats_.events_routed += qs.pushed;
    final_stats_.events_processed += qs.popped;
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
  for (const Session& s : sessions_) {
    final_stats_.epochs_fired += s.tracker.stats().epochs_fired;
  }
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

const StreamTracker& TrackerManager::session(std::uint32_t user) const {
  return find_session(user).tracker;
}

const SessionOptions& TrackerManager::session_options(
    std::uint32_t user) const {
  return find_session(user).options;
}

ManagerStats TrackerManager::stats() const { return final_stats_; }

}  // namespace fluxfp::stream
