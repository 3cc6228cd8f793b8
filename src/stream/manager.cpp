#include "stream/manager.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "numeric/parallel.hpp"
#include "obs/instrument.hpp"

#if defined(FLUXFP_OBS_ENABLED)
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

/// Size of an assembled image: the header, the session count, then the
/// records (assemble_checkpoint).
std::uint64_t image_bytes(std::uint64_t record_bytes) {
  return kCheckpointHeaderBytes + sizeof(std::uint64_t) + record_bytes;
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
  journals_.resize(workers);
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

void TrackerManager::start_supervised(std::size_t cut_every_epochs) {
  if (started_.load(std::memory_order_relaxed)) {
    throw std::logic_error("TrackerManager: already started");
  }
  supervised_ = true;
  cut_every_epochs_ = cut_every_epochs;
  std::vector<std::string> records;
  std::uint64_t bytes = 0;
  for (const Session& s : sessions_) {
    records.push_back(encode_session_record(snapshot(s.user, s.tracker)));
    bytes += records.back().size();
  }
  {
    // No worker exists yet; the flow lock keeps one access regime.
    support::MutexLock lock(flow_mutex_);
    cut_records_ = std::move(records);
    cut_bytes_ = bytes;
  }
  start();
}

bool TrackerManager::admit_locked(std::uint32_t tenant) {
  std::uint64_t& in_flight = tenant_in_flight_.at(tenant);
  if (in_flight >= config_.tenant_quota) {
    return false;
  }
  ++in_flight;
  return true;
}

RoomWait TrackerManager::offer(std::span<const FluxEvent> events,
                               std::span<PushStatus> status,
                               CutsSeen* cuts) {
  if (status.size() != events.size()) {
    throw std::invalid_argument(
        "TrackerManager: offer needs one status slot per event");
  }
  RoomWait room;
  if (!started_.load(std::memory_order_relaxed) ||
      finished_.load(std::memory_order_relaxed)) {
    std::fill(status.begin(), status.end(), PushStatus::kClosed);
    return room;
  }
  // Session of each event, resolved off the lock; kNoSession marks an
  // event that is not (or no longer) headed for a queue.
  constexpr std::size_t kNoSession = static_cast<std::size_t>(-1);
  std::vector<std::size_t> session(events.size(), kNoSession);
  std::uint64_t unknown = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto it = user_index_.find(events[i].user);
    if (it == user_index_.end()) {
      status[i] = PushStatus::kUnknownUser;
      ++unknown;
    } else {
      status[i] = PushStatus::kAccepted;
      session[i] = it->second;
    }
  }
  if (unknown > 0) {
    FLUXFP_OBS_COUNTER_ADD("fluxfp_stream_unknown_user_total",
                           "Pushes for sessions never registered", unknown);
  }
  // Admission, once for the span: no worker can release a quota slot
  // during the hold, so exactly a tenant's events past its quota shed.
  const bool quota = config_.tenant_quota > 0;
  {
    support::MutexLock lock(flow_mutex_);
    std::uint64_t admitted = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (session[i] == kNoSession) {
        continue;
      }
      if (quota && !admit_locked(sessions_[session[i]].options.tenant)) {
        status[i] = PushStatus::kShedQuota;
        session[i] = kNoSession;
        continue;
      }
      ++admitted;
    }
    routed_flow_ += admitted;
    if (cuts != nullptr) {
      cuts->published = cuts_published_;
      cuts->image_bytes = image_bytes(cut_bytes_);
    }
  }
  // Each worker's admitted events, in offer order, as one run, all
  // stamped with one clock read.
  const std::size_t workers = queues_.size();
  const EventQueue::Clock::time_point pushed = EventQueue::Clock::now();
  std::vector<FluxEvent> run;
  run.reserve(events.size());
  for (std::size_t w = 0; w < workers; ++w) {
    run.clear();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (session[i] != kNoSession && session[i] % workers == w) {
        run.push_back(events[i]);
      }
    }
    if (run.empty()) {
      continue;
    }
    if (queues_[w]->push_run(run, pushed)) {
      room.add(queues_[w].get());
      continue;
    }
    // A closed queue (finish() ran concurrently, against the contract)
    // queued none of the run: take it back out of the flow ledger.
    support::MutexLock lock(flow_mutex_);
    routed_flow_ -= run.size();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (session[i] != kNoSession && session[i] % workers == w) {
        status[i] = PushStatus::kClosed;
        if (quota) {
          --tenant_in_flight_.at(sessions_[session[i]].options.tenant);
        }
      }
    }
  }
  return room;
}

PushStatus TrackerManager::offer(const FluxEvent& event) {
  PushStatus status = PushStatus::kClosed;
  offer(std::span<const FluxEvent>(&event, 1),
        std::span<PushStatus>(&status, 1))
      .wait();
  return status;
}

void TrackerManager::worker_loop(std::size_t worker) {
  // Candidate evaluation inside the SMC steps runs serially inline on this
  // thread: the service's parallelism axis is sessions, not candidates,
  // and the shared pool admits one external caller at a time.
  numeric::SerialRegionGuard serial;
  EventQueue& queue = *queues_[worker];
  std::vector<FluxEvent>& journal = journals_[worker];
  const std::size_t stride = queues_.size();
  const bool quota = config_.tenant_quota > 0;
  // Bounded runs: long enough to pay the flow accounting once per run, short
  // enough that an offer waiting for room is released within a few folds.
  const std::size_t max_run =
      std::max<std::size_t>(1, config_.queue_capacity / 8);
  std::vector<FluxEvent> run;
  std::vector<std::uint32_t> tenants;  // the run's events' tenants (quota)
  std::vector<EventQueue::Clock::time_point> completed;  // offered runs' stamps
  std::vector<std::string> records;  // this worker's sessions, at a cut
  std::uint64_t epochs_since_cut = 0;
  while (queue.pop_run(run, max_run, completed)) {
    tenants.clear();
    for (const FluxEvent& event : run) {
      // Routing guarantees the session belongs to this worker.
      Session& s = sessions_[user_index_.at(event.user)];
      epochs_since_cut += s.tracker.on_event(event).size();
      if (quota) {
        tenants.push_back(s.options.tenant);
      }
    }
    // The cut comes after the run's folds, so its records cover every
    // event this worker has folded and the journal starts over; without a
    // cut the run joins the journal. Either way before the flow hold: a
    // quiesce() that sees the run processed sees the journal and the cut.
    const bool cut =
        supervised_ && (epochs_since_cut >= cut_every_epochs_ ||
                        journal.size() + run.size() >= kMaxJournalEvents);
    if (cut) {
      records.clear();
      for (std::size_t i = worker; i < sessions_.size(); i += stride) {
        const Session& s = sessions_[i];
        records.push_back(encode_session_record(snapshot(s.user, s.tracker)));
      }
      journal.clear();
      epochs_since_cut = 0;
    } else if (supervised_) {
      journal.insert(journal.end(), run.begin(), run.end());
    }
    const EventQueue::Clock::time_point folded =
        completed.empty() ? EventQueue::Clock::time_point{}
                          : EventQueue::Clock::now();
    // Flow accounting AFTER the folds: a quiesce() that observes
    // processed == routed therefore also observes every session's state
    // and every latency sample (the mutex handshake publishes them).
    {
      support::MutexLock lock(flow_mutex_);
      processed_flow_ += run.size();
      for (const std::uint32_t tenant : tenants) {
        --tenant_in_flight_.at(tenant);
      }
      for (const EventQueue::Clock::time_point pushed : completed) {
        record_latency_locked(
            std::chrono::duration<double, std::micro>(folded - pushed)
                .count());
      }
      if (cut) {
        // Swapped in, so the replaced records are freed off the lock.
        std::size_t k = 0;
        for (std::size_t i = worker; i < sessions_.size(); i += stride) {
          cut_bytes_ -= cut_records_[i].size();
          cut_bytes_ += records[k].size();
          cut_records_[i].swap(records[k++]);
        }
        ++cuts_published_;
      }
    }
    flow_cv_.notify_all();
  }
  // Stream over: fire every still-open window, in session order.
  for (std::size_t i = worker; i < sessions_.size(); i += stride) {
    sessions_[i].tracker.flush();
  }
}

void TrackerManager::record_latency_locked(double micros) {
  if (latency_us_.size() < kIngestLatencySamples) {
    latency_us_.push_back(micros);
    return;
  }
  latency_us_[latency_next_] = micros;
  latency_next_ = (latency_next_ + 1) % kIngestLatencySamples;
}

std::vector<double> TrackerManager::ingest_latency_us() const {
  support::MutexLock lock(flow_mutex_);
  return latency_us_;
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

std::string TrackerManager::cut_image() const {
  std::vector<std::string> records;
  {
    support::MutexLock lock(flow_mutex_);
    if (cut_records_.empty()) {
      return {};
    }
    records = cut_records_;
  }
  return assemble_checkpoint(records);
}

std::uint64_t TrackerManager::restart_from(const ManagerCheckpoint& cut) {
  apply(cut);
  // Folds inline, as the workers do: the service leaves the shared pool
  // to single-threaded callers.
  numeric::SerialRegionGuard serial;
  std::uint64_t refolded = 0;
  for (const std::vector<FluxEvent>& journal : journals_) {
    for (const FluxEvent& event : journal) {
      sessions_[user_index_.at(event.user)].tracker.on_event(event);
    }
    refolded += journal.size();
  }
  return refolded;
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
  apply(cp);
}

void TrackerManager::apply(const ManagerCheckpoint& cp) {
  if (cp.sessions.size() != sessions_.size()) {
    throw std::invalid_argument(
        "TrackerManager: checkpoint session count does not match the "
        "registered sessions");
  }
  // Validate the whole image against the registered sessions first, then
  // apply — a mismatch must not leave some sessions restored and others
  // fresh. With the counts equal, a session recorded twice would leave
  // another uncovered.
  std::vector<std::size_t> targets;
  targets.reserve(cp.sessions.size());
  std::vector<bool> recorded(sessions_.size(), false);
  for (const SessionCheckpoint& sc : cp.sessions) {
    const auto it = user_index_.find(sc.user);
    if (it == user_index_.end()) {
      throw std::invalid_argument(
          "TrackerManager: checkpoint session for an unregistered user");
    }
    if (recorded[it->second]) {
      throw std::invalid_argument(
          "TrackerManager: checkpoint records a session twice");
    }
    recorded[it->second] = true;
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

}  // namespace fluxfp::stream
