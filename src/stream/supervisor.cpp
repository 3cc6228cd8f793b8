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
  if (config_.checkpoint_every_epochs == 0) {
    throw std::invalid_argument(
        "Supervisor: checkpoint_every_epochs must be >= 1");
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
  started_ = true;
  manager_->start_supervised(config_.checkpoint_every_epochs);
  // Epoch-zero baseline: every session was cut at start, so a crash before
  // the first worker cut has something to restore.
  const std::string baseline = manager_->cut_image();
  if (const auto err = persist(baseline)) {
    throw std::runtime_error(*err);
  }
  count_commit(baseline.size());
}

RoomWait Supervisor::offer(std::span<const FluxEvent> events,
                           std::span<PushStatus> status) {
  if (status.size() != events.size()) {
    throw std::invalid_argument(
        "Supervisor: offer needs one status slot per event");
  }
  std::fill(status.begin(), status.end(), PushStatus::kClosed);
  if (!started_ || finished_) {
    return {};
  }
  CutsSeen cuts;
  RoomWait room = manager_->offer(events, status, &cuts);
  if (cuts.published != cuts_committed_) {
    // A worker cut since the newest commit, tried once whether or not the
    // write succeeds. Only a durable copy needs the whole image.
    cuts_committed_ = cuts.published;
    const bool failed = !config_.checkpoint_path.empty() &&
                        persist(manager_->cut_image()).has_value();
    if (!failed) {
      count_commit(cuts.image_bytes);
    }
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

std::optional<std::string> Supervisor::persist(const std::string& image) {
  if (config_.checkpoint_path.empty()) {
    return std::nullopt;
  }
  try {
    write_checkpoint_file(config_.checkpoint_path, image);
  } catch (const std::runtime_error& e) {
    ++stats_.checkpoint_write_failures;
    FLUXFP_OBS_COUNTER_INC_SCHED(
        "fluxfp_supervisor_checkpoint_write_failures_total",
        "Checkpoint file writes that failed (the file keeps the previous "
        "image)");
    return e.what();
  }
  return std::nullopt;
}

void Supervisor::count_commit(std::uint64_t bytes) {
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

void Supervisor::quiesce() {
  if (started_ && !finished_) {
    manager_->quiesce();
  }
}

void Supervisor::finish() {
  if (!started_ || finished_) {
    return;
  }
  manager_->finish();
  // Final post-flush image: open windows have fired, so this is the
  // durable shutdown snapshot (what a daemon persists on SIGTERM).
  std::string image = encode_checkpoint(manager_->checkpoint());
  if (const auto err = persist(image)) {
    throw std::runtime_error(*err);
  }
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
  if (!started_ || finished_) {
    return;
  }
  // The crash takes every session's state since its worker's newest cut
  // with it; the cuts and the journals are the durable record. Once the
  // shard is idle, each journal holds exactly what its worker folded since
  // its cut. A restart waits for nothing outside this process, so it
  // follows at once, however often the shard crashes.
  manager_->quiesce();
  ManagerCheckpoint cut;
  std::istringstream is(manager_->cut_image());
  if (const auto err = read_checkpoint(is, cut)) {
    throw std::logic_error("Supervisor: the workers' cuts do not decode: " +
                           err->to_string());
  }
  stats_.replayed_events += manager_->restart_from(cut);
  ++stats_.restarts;
  FLUXFP_OBS_COUNTER_INC_SCHED(
      "fluxfp_supervisor_restarts_total",
      "Shard restarts from the workers' newest cuts (restore + re-fold)");
}

}  // namespace fluxfp::stream
