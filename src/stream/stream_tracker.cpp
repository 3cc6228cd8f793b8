#include "stream/stream_tracker.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/instrument.hpp"

namespace fluxfp::stream {

namespace {

std::vector<geom::Vec2> positions_from_graph(
    const net::UnitDiskGraph& graph,
    const std::vector<std::size_t>& nodes) {
  std::vector<geom::Vec2> out;
  out.reserve(nodes.size());
  for (std::size_t n : nodes) {
    out.push_back(graph.position(n));
  }
  return out;
}

geom::Rng seeded_rng(std::uint64_t seed) { return geom::Rng(seed); }

std::vector<core::Site> point_sites_of(const std::vector<geom::Vec2>& p) {
  std::vector<core::Site> sites;
  sites.reserve(p.size());
  for (geom::Vec2 v : p) {
    sites.push_back(core::point_site(v));
  }
  return sites;
}

}  // namespace

StreamTracker::StreamTracker(const core::ObservationModel& model,
                             const geom::Field& field,
                             std::vector<std::size_t> site_keys,
                             std::vector<core::Site> sites,
                             std::size_t num_users,
                             StreamTrackerConfig config, std::uint64_t seed)
    : model_(model.clone()),
      sniffer_nodes_(std::move(site_keys)),
      sites_(std::move(sites)),
      config_(config),
      rng_(seeded_rng(seed)),
      smc_(field, num_users, config.smc, rng_) {
  if (sniffer_nodes_.empty() || sniffer_nodes_.size() != sites_.size()) {
    throw std::invalid_argument(
        "StreamTracker: sniffer set empty or size mismatch");
  }
  if (!(config_.close_delay > 0.0) || config_.max_open_epochs == 0) {
    throw std::invalid_argument("StreamTracker: bad window config");
  }
  if (config_.expected_readings > sniffer_nodes_.size()) {
    throw std::invalid_argument(
        "StreamTracker: expected_readings exceeds the sniffer count");
  }
  node_slot_.reserve(sniffer_nodes_.size());
  for (std::size_t slot = 0; slot < sniffer_nodes_.size(); ++slot) {
    const auto node = static_cast<std::uint32_t>(sniffer_nodes_[slot]);
    if (!node_slot_.emplace(node, slot).second) {
      throw std::invalid_argument("StreamTracker: duplicate sniffer node");
    }
  }
}

StreamTracker::StreamTracker(const core::FluxModel& model,
                             std::vector<std::size_t> sniffer_nodes,
                             std::vector<geom::Vec2> sniffer_positions,
                             std::size_t num_users,
                             StreamTrackerConfig config, std::uint64_t seed)
    : StreamTracker(model, model.field(), std::move(sniffer_nodes),
                    point_sites_of(sniffer_positions), num_users, config,
                    seed) {}

StreamTracker::StreamTracker(const core::FluxModel& model,
                             const net::UnitDiskGraph& graph,
                             std::vector<std::size_t> sniffer_nodes,
                             std::size_t num_users,
                             StreamTrackerConfig config, std::uint64_t seed)
    : StreamTracker(model, sniffer_nodes,
                    positions_from_graph(graph, sniffer_nodes), num_users,
                    config, seed) {}

std::vector<EpochResult> StreamTracker::on_event(const FluxEvent& event) {
  std::vector<EpochResult> fired;
  now_ = std::max(now_, event.time);

  const auto slot_it = node_slot_.find(event.node);
  if (slot_it == node_slot_.end()) {
    ++stats_.unknown_node;
    FLUXFP_OBS_COUNTER_INC("fluxfp_stream_fold_unknown_node_total",
                           "Events from nodes outside the sniffer set");
    collect_ripe(fired);
    return fired;
  }
  if (stats_.epochs_fired > 0 && event.epoch <= last_fired_epoch_) {
    // Straggler for a window that already fired: the filtering step it
    // missed cannot be revisited (the SMC has moved on), so count it and
    // drop it — the paper's asynchronous updating tolerates the slot
    // simply having carried less evidence.
    ++stats_.late;
    FLUXFP_OBS_COUNTER_INC("fluxfp_stream_fold_late_total",
                           "Events for an already-fired epoch, dropped");
    collect_ripe(fired);
    return fired;
  }
  if (!open_.empty() && open_.rbegin()->first > event.epoch) {
    ++stats_.out_of_order;
    FLUXFP_OBS_COUNTER_INC(
        "fluxfp_stream_fold_out_of_order_total",
        "Events folded while a newer epoch window was already open");
  }

  Window& w = open_[event.epoch];
  if (w.readings.empty()) {
    w.readings.assign(sniffer_nodes_.size(), net::kMissingReading);
    w.seen.assign(sniffer_nodes_.size(), false);
  }
  const std::size_t slot = slot_it->second;
  if (w.seen[slot]) {
    ++stats_.duplicates;  // keep the latest report for the slot
    FLUXFP_OBS_COUNTER_INC("fluxfp_stream_fold_duplicate_total",
                           "Re-reports of a (epoch, node) slot");
  } else {
    w.seen[slot] = true;
    ++w.seen_count;
  }
  w.readings[slot] = event.reading;
  w.newest_time = std::max(w.newest_time, event.time);
  ++stats_.events;
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_fold_events_total",
                         "Events folded into epoch windows");

  collect_ripe(fired);
  return fired;
}

void StreamTracker::collect_ripe(std::vector<EpochResult>& out) {
  while (!open_.empty()) {
    const Window& oldest = open_.begin()->second;
    const bool complete = config_.expected_readings > 0 &&
                          oldest.seen_count >= config_.expected_readings;
    const bool lapsed = now_ - oldest.newest_time > config_.close_delay;
    const bool crowded = open_.size() > config_.max_open_epochs;
    if (!complete && !lapsed && !crowded) {
      return;
    }
    if (crowded && !complete && !lapsed) {
      ++stats_.forced_closes;
      FLUXFP_OBS_COUNTER_INC("fluxfp_stream_forced_closes_total",
                             "Windows force-closed by max_open_epochs");
    }
    out.push_back(fire_oldest());
  }
}

EpochResult StreamTracker::fire_oldest() {
  const auto it = open_.begin();
  const std::uint32_t epoch = it->first;
  Window window = std::move(it->second);
  open_.erase(it);

  EpochResult result;
  result.epoch = epoch;
  // Observation time: the window's newest reading. Clamped to stay
  // strictly increasing across steps (SmcTracker's contract) even when
  // reordering left an older epoch with a newer timestamp.
  const double bump = 1e-9 * (1.0 + std::abs(last_step_time_));
  result.time = std::max(window.newest_time, last_step_time_ + bump);

  {
    // The one record of filter cost; session state holds no clock values.
    FLUXFP_OBS_SPAN(step_span, "fluxfp_stream_epoch_filter_micros",
                    "Wall-clock cost of one epoch window's SMC step");
    // The sharing constructor: the model is shared, not cloned, so a
    // fired window costs one sites copy and no model copy.
    const core::SparseObjective objective(model_, sites_,
                                          std::move(window.readings),
                                          std::vector<bool>());
    result.readings = objective.sample_count();
    result.step = smc_.step(result.time, objective, rng_);
  }

  result.estimates.resize(smc_.num_users());
  for (std::size_t u = 0; u < smc_.num_users(); ++u) {
    result.estimates[u] = smc_.estimate(u);
  }

  last_step_time_ = result.time;
  last_fired_epoch_ = epoch;
  ++stats_.epochs_fired;
  FLUXFP_OBS_COUNTER_INC("fluxfp_stream_epochs_fired_total",
                         "Epoch windows fired through the SMC");
  return result;
}

StreamTrackerState StreamTracker::save_state() const {
  StreamTrackerState state;
  {
    // mt19937_64's stream operators serialize the engine's integral words
    // in decimal; reading them back reproduces the exact stream position.
    std::ostringstream os;
    os << rng_;
    state.rng = os.str();
  }
  state.smc = smc_.save_state();
  state.open.reserve(open_.size());
  for (const auto& [epoch, window] : open_) {
    WindowState ws;
    ws.epoch = epoch;
    ws.newest_time = window.newest_time;
    ws.readings = window.readings;
    ws.seen = window.seen;
    state.open.push_back(std::move(ws));
  }
  state.now = now_;
  state.last_step_time = last_step_time_;
  state.last_fired_epoch = last_fired_epoch_;
  state.stats = stats_;
  return state;
}

void StreamTracker::restore_state(const StreamTrackerState& state) {
  const std::size_t slots = sniffer_nodes_.size();
  for (std::size_t i = 0; i < state.open.size(); ++i) {
    const WindowState& ws = state.open[i];
    if (ws.readings.size() != slots || ws.seen.size() != slots) {
      throw std::invalid_argument(
          "StreamTracker: snapshot window does not match this tracker's "
          "sniffer set");
    }
    if (i > 0 && state.open[i - 1].epoch >= ws.epoch) {
      throw std::invalid_argument(
          "StreamTracker: snapshot windows not in ascending epoch order");
    }
  }
  // Window sets on_event() never leaves behind: collect_ripe() fires the
  // oldest window while more than max_open_epochs are open, and once an
  // epoch has fired, events for it or an older one are dropped as late.
  if (state.open.size() > config_.max_open_epochs) {
    throw std::invalid_argument(
        "StreamTracker: snapshot holds more open windows than "
        "max_open_epochs");
  }
  if (state.stats.epochs_fired > 0 && !state.open.empty() &&
      state.open.front().epoch <= state.last_fired_epoch) {
    throw std::invalid_argument(
        "StreamTracker: snapshot holds a window for an epoch that already "
        "fired");
  }
  geom::Rng restored_rng;
  {
    std::istringstream is(state.rng);
    if (!(is >> restored_rng)) {
      throw std::invalid_argument(
          "StreamTracker: snapshot RNG stream is unparseable");
    }
  }
  // All validation above throws before any member is touched, so a bad
  // snapshot never leaves the tracker half-restored.
  smc_.restore_state(state.smc);  // validates its own shapes; throws first
  rng_ = restored_rng;
  open_.clear();
  for (const WindowState& ws : state.open) {
    Window w;
    w.readings = ws.readings;
    w.seen = ws.seen;
    // Derived, not stored: the count is the window's set bits, so an
    // image cannot carry a count that disagrees with them.
    w.seen_count = static_cast<std::size_t>(
        std::count(ws.seen.begin(), ws.seen.end(), true));
    w.newest_time = ws.newest_time;
    open_.emplace(ws.epoch, std::move(w));
  }
  now_ = state.now;
  last_step_time_ = state.last_step_time;
  last_fired_epoch_ = state.last_fired_epoch;
  stats_ = state.stats;
}

std::vector<EpochResult> StreamTracker::flush() {
  std::vector<EpochResult> fired;
  fired.reserve(open_.size());
  while (!open_.empty()) {
    fired.push_back(fire_oldest());
  }
  return fired;
}

}  // namespace fluxfp::stream
