#include "stream/supervisor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/instrument.hpp"
#include "stream/checkpoint.hpp"

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
  manager_->start_supervised(config_.checkpoint_every_epochs);
  // Epoch-zero baseline: every session was cut at start, so a crash before
  // the first worker cut has something to restore.
  const std::string baseline = manager_->cut_image();
  persist(baseline);
  count_commit(baseline.size());
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
  CutsSeen cuts;
  RoomWait room = manager_->offer(events, status, &cuts);
  if (cuts.published != cuts_committed_) {
    // A worker cut since the newest commit. Only a durable copy needs the
    // whole image; a failed write throws before anything is counted.
    if (!config_.checkpoint_path.empty()) {
      persist(manager_->cut_image());
    }
    cuts_committed_ = cuts.published;
    count_commit(cuts.image_bytes);
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

void Supervisor::persist(const std::string& image) const {
  if (!config_.checkpoint_path.empty()) {
    write_checkpoint_file(config_.checkpoint_path, image);
  }
}

void Supervisor::count_commit(std::uint64_t bytes) {
  consecutive_failures_ = 0;
  stats_.checkpoint_bytes = bytes;
  ++stats_.checkpoints;
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_supervisor_checkpoints_total",
                               "Checkpoints committed");
#if defined(FLUXFP_OBS_ENABLED)
  if (obs::enabled()) {
    obs::MetricsRegistry::global()
        .gauge("fluxfp_supervisor_checkpoint_bytes",
               "Size of the newest committed checkpoint image",
               obs::Determinism::kScheduling)
        .set(static_cast<double>(bytes));
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
    // Nothing left to drain: the run ends at the last image of the cuts.
    finished_ = true;
    return;
  }
  manager_->finish();
  // Final post-flush image: open windows have fired, so this is the
  // durable shutdown snapshot (what a daemon persists on SIGTERM).
  std::string image = encode_checkpoint(manager_->checkpoint());
  persist(image);
  count_commit(image.size());
  image_ = std::move(image);
  finished_ = true;
}

std::string Supervisor::checkpoint_image() const {
  if (manager_ == nullptr || finished_) {
    return image_;
  }
  return manager_->cut_image();
}

void Supervisor::inject_crash() {
  if (!started_ || finished_ || failed_) {
    return;
  }
  ++stats_.crashes_injected;
  FLUXFP_OBS_COUNTER_INC_SCHED("fluxfp_supervisor_crashes_injected_total",
                               "Shard kills injected by inject_crash()");
  // The crash takes every session's state since its worker's newest cut
  // with it; the cuts and the journals are the durable record. Once the
  // shard is idle, each journal holds exactly what its worker folded since
  // its cut. A restart waits for nothing outside this process, so it
  // follows at once — unless the restart budget is spent, or the cuts
  // cannot decode and there is nothing sound to restart from.
  manager_->quiesce();
  std::string image = manager_->cut_image();
  ++consecutive_failures_;
  ManagerCheckpoint cut;
  std::istringstream is(image);
  if (consecutive_failures_ > kMaxRestarts || read_checkpoint(is, cut)) {
    failed_ = true;
    image_ = std::move(image);
    manager_.reset();
    stats_.sessions_shed += users_.size();
    FLUXFP_OBS_COUNTER_ADD_SCHED(
        "fluxfp_supervisor_sessions_shed_total",
        "Sessions lost because the supervisor exhausted its restart budget",
        users_.size());
    return;
  }
  stats_.replayed_events += manager_->restart_from(cut);
  ++stats_.restarts;
  FLUXFP_OBS_COUNTER_INC_SCHED(
      "fluxfp_supervisor_restarts_total",
      "Shard restarts from the workers' newest cuts (restore + re-fold)");
}

}  // namespace fluxfp::stream
