#include "stream/supervisor.hpp"

#include <algorithm>
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
  commit(encode_checkpoint(manager_->checkpoint()), 0, 0);
}

RoomWait Supervisor::offer(std::span<const FluxEvent> events,
                           std::span<PushStatus> status) {
  if (status.size() != events.size()) {
    throw std::invalid_argument(
        "Supervisor: offer needs one status slot per event");
  }
  std::fill(status.begin(), status.end(), PushStatus::kClosed);
  if (!started_ || finished_ || failed_) {
    return {};
  }
  RoomWait room = manager_->offer(events, status);
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (status[i] == PushStatus::kAccepted) {
      journal_.push_back(events[i]);
      ++accepted;
    }
  }
  if (accepted == 0) {
    return room;
  }
  // Epoch cadence, triggered off the relaxed live counter; the cut's own
  // epoch total is exact. A due boundary first waits for a pending cut.
  const bool due =
      config_.checkpoint_every_epochs > 0 &&
      manager_->epochs_fired_live() - epochs_live_at_cut_ >=
          config_.checkpoint_every_epochs;
  if (cut_) {
    if (std::optional<ManagerCut> cut = manager_->take_cut(due)) {
      commit_cut(std::move(*cut));
    }
  }
  if (due && !cut_) {
    manager_->request_cut();
    cut_ = journal_.size();
    epochs_live_at_cut_ = manager_->epochs_fired_live();
  }
  return room;
}

PushStatus Supervisor::offer(const FluxEvent& event) {
  PushStatus status = PushStatus::kClosed;
  offer(std::span<const FluxEvent>(&event, 1),
        std::span<PushStatus>(&status, 1))
      .wait();
  return status;
}

void Supervisor::commit_cut(ManagerCut cut) {
  const std::size_t journaled = *cut_;
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
  commit(assemble_checkpoint(cut.records), cut.epochs, journaled);
}

void Supervisor::commit(std::string image, std::uint64_t epochs,
                        std::size_t journaled) {
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

bool Supervisor::quiesce() {
  if (!started_ || finished_ || failed_) {
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
    // Nothing left to drain: the run ends at the last committed checkpoint.
    finished_ = true;
    return;
  }
  manager_->finish();
  // Final post-flush image: open windows have fired, so this is the
  // durable shutdown snapshot (what a daemon persists on SIGTERM). It
  // covers every offer, so a pending cut has nothing left to add.
  cut_.reset();
  commit(encode_checkpoint(manager_->checkpoint()), exact_epochs(),
         journal_.size());
  finished_ = true;
}

void Supervisor::inject_crash() {
  if (!started_ || finished_ || failed_) {
    return;
  }
  ++stats_.crashes_injected;
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_supervisor_crashes_injected_total",
                               "Shard kills injected by inject_crash()");
  // The incarnation dies taking all uncommitted state with it, a pending
  // cut included; the image and the journal are the durable record.
  // (Destruction joins the workers — simulating the kill, not surviving
  // it.)
  manager_.reset();
  cut_.reset();
  // A restart waits for nothing outside this process, so it follows at
  // once — unless the restart budget is spent, or the in-memory image
  // cannot decode and there is nothing sound to restart from.
  ++consecutive_failures_;
  ManagerCheckpoint cp;
  std::istringstream is(image_);
  if (consecutive_failures_ > kMaxRestarts || read_checkpoint(is, cp)) {
    failed_ = true;
    stats_.sessions_shed += users_.size();
    FLUXFP_OBS_COUNTER_ADD_SCHED(
        "fluxfp_supervisor_sessions_shed_total",
        "Sessions lost because the supervisor exhausted its restart budget",
        users_.size());
    return;
  }
  std::unique_ptr<TrackerManager> fresh = factory_();
  if (!fresh || fresh->started() || fresh->users() != users_) {
    throw std::logic_error(
        "Supervisor: factory must rebuild the same not-started session set");
  }
  fresh->restore(cp);
  fresh->start();
  manager_ = std::move(fresh);
  epochs_live_at_cut_ = 0;  // the live counter restarted with the shard
  for (const FluxEvent& e : journal_) {
    if (manager_->offer(e) == PushStatus::kShedQuota) {
      // The journal holds only admitted events, so none may be shed now.
      // A quiesced shard has every tenant at zero in flight: the retry is
      // admitted.
      manager_->quiesce();
      manager_->offer(e);
    }
    ++stats_.replayed_events;
  }
  ++stats_.restarts;
  FLUXFP_OBS_COUNTER_INC_SCHED(
      "fluxfp_supervisor_restarts_total",
      "Shard restarts from the last good checkpoint (restore + replay)");
}

std::uint64_t Supervisor::exact_epochs() const {
  std::uint64_t total = 0;
  for (const std::uint32_t u : users_) {
    total += manager_->session(u).stats().epochs_fired;
  }
  return total;
}

}  // namespace fluxfp::stream
