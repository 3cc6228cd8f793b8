#include "stream/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/instrument.hpp"

#if defined(FLUXFP_OBS_ENABLED)
#include "obs/obs.hpp"
#endif

namespace fluxfp::stream {

Supervisor::Supervisor(ManagerFactory factory, SupervisorConfig config)
    : factory_(std::move(factory)), config_(std::move(config)) {
  if (!factory_) {
    throw std::invalid_argument("Supervisor: null manager factory");
  }
  if (config_.backoff_base < 0.0 || config_.backoff_factor < 1.0) {
    throw std::invalid_argument(
        "Supervisor: backoff_base must be >= 0 and backoff_factor >= 1");
  }
}

void Supervisor::start() {
  if (started_) {
    throw std::logic_error("Supervisor: already started");
  }
  manager_ = factory_();
  if (!manager_) {
    throw std::invalid_argument("Supervisor: factory returned null");
  }
  if (manager_->started()) {
    throw std::invalid_argument(
        "Supervisor: factory must return a not-yet-started manager");
  }
  users_ = manager_->users();
  started_ = true;
  manager_->start();
  // Epoch-zero baseline: a crash before the first supervision boundary
  // must have an image to restore.
  commit(encode_checkpoint(manager_->checkpoint()), 0, 0, 0);
}

PushStatus Supervisor::offer(const FluxEvent& event) {
  if (!started_ || finished_ || failed_) {
    return PushStatus::kClosed;
  }
  ++offers_;
  if (event.time > vnow_) {
    vnow_ = event.time;
  }
  if (!manager_) {
    if (vnow_ < restart_at_) {
      // Down for backoff: defer. The journal is the durable record, so
      // the event is admitted, not lost — it replays at restart. Only the
      // session set is checkable while the shard is down.
      if (std::find(users_.begin(), users_.end(), event.user) ==
          users_.end()) {
        return PushStatus::kUnknownUser;
      }
      journal_.push_back(event);
      ++stats_.events_deferred;
      return PushStatus::kAccepted;
    }
    if (!try_restart()) {
      return PushStatus::kClosed;
    }
  }
  const PushStatus status = manager_->offer(event);
  if (status != PushStatus::kAccepted) {
    return status;
  }
  journal_.push_back(event);
  ++routed_since_manager_;
  // Heartbeat over virtual time: with work pending, the fold counter must
  // advance before the deadline lapses. Relaxed reads — a heuristic
  // detector, made exact only at quiesced boundaries.
  const std::uint64_t processed = manager_->processed_live();
  if (processed != last_processed_seen_) {
    last_processed_seen_ = processed;
    last_progress_vtime_ = vnow_;
  } else if (config_.heartbeat_deadline > 0.0 &&
             routed_since_manager_ > processed &&
             vnow_ - last_progress_vtime_ > config_.heartbeat_deadline) {
    ++stats_.stalls_detected;
    FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_supervisor_stalls_total",
                                 "Shards declared stalled (heartbeat lapse)");
    crash_shard();
    return PushStatus::kAccepted;  // journaled; replays at restart
  }
  // Epoch cadence, triggered off the relaxed live counter; the cut's own
  // epoch total is exact. A due boundary first waits for a pending cut.
  const bool due =
      config_.checkpoint_every_epochs > 0 &&
      manager_->epochs_fired_live() - epochs_live_at_cut_ >=
          config_.checkpoint_every_epochs;
  if (cut_) {
    std::optional<ManagerCut> cut = manager_->take_cut(due);
    if (cut && !commit_cut(std::move(*cut))) {
      return PushStatus::kAccepted;  // killed by the fault plan; replays
    }
  }
  if (due && !cut_) {
    manager_->request_cut();
    cut_ = PendingCut{journal_.size(), offers_};
    epochs_live_at_cut_ = manager_->epochs_fired_live();
  }
  return PushStatus::kAccepted;
}

bool Supervisor::commit_cut(ManagerCut cut) {
  const PendingCut at = *cut_;
  cut_.reset();
#if defined(FLUXFP_OBS_ENABLED)
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .gauge("fluxfp_supervisor_checkpoint_age_epochs",
               "Epochs fired since the last committed checkpoint",
               obs::Determinism::kScheduling)
        .set(static_cast<double>(cut.epochs - epochs_at_checkpoint_));
  }
#endif
  if (config_.fault.should_crash(cut.epochs, stats_.crashes_injected)) {
    ++stats_.crashes_injected;
    FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_supervisor_crashes_injected_total",
                                 "Shard kills injected by the fault plan");
    crash_shard();
    return false;
  }
  commit(assemble_checkpoint(cut.records), cut.epochs, at.journaled,
         at.offers);
  return true;
}

void Supervisor::commit(std::string image, std::uint64_t epochs,
                        std::size_t journaled, std::uint64_t offers) {
  // The durable copy goes first: if it throws, image_ and the journal
  // still describe the previous checkpoint.
  if (!config_.checkpoint_path.empty()) {
    write_checkpoint_file(config_.checkpoint_path, image);
  }
  image_ = std::move(image);
  // Everything up to the cut is durable now: the journal keeps only the
  // events offered after it, and the incident window closes.
  journal_.erase(journal_.begin(),
                 journal_.begin() + static_cast<std::ptrdiff_t>(journaled));
  consecutive_failures_ = 0;
  epochs_at_checkpoint_ = epochs;
  stats_.checkpoint_bytes = image_.size();
  stats_.offers_covered = offers;
  ++stats_.checkpoints;
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_supervisor_checkpoints_total",
                               "Checkpoints committed");
#if defined(FLUXFP_OBS_ENABLED)
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .gauge("fluxfp_supervisor_checkpoint_bytes",
               "Size of the newest committed checkpoint image",
               obs::Determinism::kScheduling)
        .set(static_cast<double>(image_.size()));
  }
#endif
}

void Supervisor::crash_shard() {
  // The incarnation dies taking all uncommitted state with it, a pending
  // cut included; the image and the journal are the durable record.
  // (Destruction joins the workers — simulating the kill, not surviving
  // it.)
  manager_.reset();
  cut_.reset();
  ++consecutive_failures_;
  if (consecutive_failures_ > config_.max_restarts) {
    give_up();
    return;
  }
  const double backoff =
      config_.backoff_base *
      std::pow(config_.backoff_factor,
               static_cast<double>(consecutive_failures_ - 1));
  restart_at_ = vnow_ + backoff;
}

void Supervisor::give_up() {
  failed_ = true;
  stats_.sessions_shed += users_.size();
  FLUXFP_OBS_COUNTER_ADD_SCHED(
      "fluxfp_supervisor_sessions_shed_total",
      "Sessions lost because the supervisor exhausted its restart budget",
      users_.size());
}

bool Supervisor::try_restart() {
  ManagerCheckpoint cp;
  std::istringstream is(image_);
  if (read_checkpoint(is, cp)) {
    // The in-memory image cannot decode — nothing sound to restart from.
    give_up();
    return false;
  }
  std::unique_ptr<TrackerManager> fresh = factory_();
  if (!fresh || fresh->started() || fresh->users() != users_) {
    throw std::logic_error(
        "Supervisor: factory must rebuild the same not-started session set");
  }
  fresh->restore(cp);
  fresh->start();
  manager_ = std::move(fresh);
  routed_since_manager_ = 0;
  last_processed_seen_ = 0;
  last_progress_vtime_ = vnow_;
  epochs_live_at_cut_ = 0;  // the live counter restarted with the shard
  for (const FluxEvent& e : journal_) {
    PushStatus status = manager_->offer(e);
    if (status == PushStatus::kShedQuota) {
      // The journal holds only admitted events, so none may be shed now.
      // A quiesced shard has every tenant at zero in flight: the retry is
      // admitted.
      manager_->quiesce();
      status = manager_->offer(e);
    }
    if (status == PushStatus::kAccepted) {
      ++routed_since_manager_;
    }
    ++stats_.replayed_events;
  }
  ++stats_.restarts;
  FLUXFP_OBS_COUNTER_INC_SCHED(
      "fluxfp_supervisor_restarts_total",
      "Shard restarts from the last good checkpoint (restore + replay)");
  return true;
}

bool Supervisor::quiesce() {
  if (!started_ || finished_ || failed_ || !manager_) {
    return false;
  }
  manager_->quiesce();
  return true;
}

void Supervisor::finish() {
  if (!started_ || finished_) {
    return;
  }
  if (failed_) {
    finished_ = true;
    return;
  }
  if (!manager_ && !try_restart()) {
    // The final drain ignores the backoff clock; an unrecoverable image
    // ends the run at the last committed checkpoint.
    finished_ = true;
    return;
  }
  manager_->finish();
  // Final post-flush image: open windows have fired, so this is the
  // durable shutdown snapshot (what a daemon persists on SIGTERM). It
  // covers every offer, so a pending cut has nothing left to add.
  cut_.reset();
  commit(encode_checkpoint(manager_->checkpoint()), exact_epochs(),
         journal_.size(), offers_);
  finished_ = true;
}

void Supervisor::inject_crash() {
  if (!started_ || finished_ || failed_ || !manager_) {
    return;
  }
  ++stats_.crashes_injected;
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_supervisor_crashes_injected_total",
                               "Shard kills injected by the fault plan");
  crash_shard();
}

std::uint64_t Supervisor::exact_epochs() const {
  std::uint64_t total = 0;
  for (const std::uint32_t u : users_) {
    total += manager_->session(u).stats().epochs_fired;
  }
  return total;
}

}  // namespace fluxfp::stream
