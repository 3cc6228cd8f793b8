#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/observation_model.hpp"
#include "core/smc.hpp"
#include "net/graph.hpp"
#include "stream/event.hpp"

namespace fluxfp::stream {

/// Policy of one streaming tracking session.
struct StreamTrackerConfig {
  /// The service tracks with N = 250 predictions per user per round, not
  /// the paper's N = 1000 that core::SmcConfig keeps for the figure
  /// harnesses: prediction, shape columns and candidate scoring scale with
  /// N, and on the service-accuracy ledger (BENCH_accuracy.json) N = 250
  /// is no less accurate than N = 1000 at 1, 2 and 3 users per session.
  core::SmcConfig smc = [] {
    core::SmcConfig c;
    c.num_predictions = 250;
    return c;
  }();

  /// Event-time deadline: the oldest open epoch window fires once an event
  /// arrives whose timestamp exceeds the window's newest reading by more
  /// than this. Deadlines are *virtual time* (event timestamps), never
  /// wall-clock — replaying a recorded trace at any speed, on any worker
  /// layout, closes exactly the same windows with the same contents.
  double close_delay = 0.5;

  /// Distinct sniffers heard from that close a window immediately, without
  /// waiting for the deadline (the happy path when no reading was lost).
  /// 0 = count never closes a window; only the deadline / flush() do.
  std::size_t expected_readings = 0;

  /// Backstop on reordering: at most this many epoch windows stay open at
  /// once; exceeding it force-closes the oldest (counted in
  /// StreamStats::forced_closes).
  std::size_t max_open_epochs = 4;
};

/// Output of one fired epoch window.
struct EpochResult {
  std::uint32_t epoch = 0;
  double time = 0.0;         ///< observation time handed to the SMC step
  std::size_t readings = 0;  ///< live (non-missing) readings in the window
  core::SmcStepResult step;
  std::vector<geom::Vec2> estimates;  ///< per tracked slot, after the step
};

/// Ingestion + filtering counters of one session.
struct StreamStats {
  std::uint64_t events = 0;        ///< events folded into windows
  std::uint64_t duplicates = 0;    ///< re-reports of a (epoch, node) slot
  std::uint64_t late = 0;          ///< events for an already-fired epoch
  /// Events folded while a newer epoch's window was already open — the
  /// reordering that multi-window accumulation exists to absorb.
  std::uint64_t out_of_order = 0;
  std::uint64_t unknown_node = 0;  ///< events from nodes not in the set
  std::uint64_t epochs_fired = 0;
  std::uint64_t forced_closes = 0;  ///< closed by max_open_epochs
};

/// One open (not yet fired) epoch window in checkpoint form.
struct WindowState {
  std::uint32_t epoch = 0;
  double newest_time = 0.0;
  std::vector<double> readings;  ///< per sniffer slot; NaN = missing
  std::vector<bool> seen;        ///< slot reported at least once
};

/// Complete mutable state of a StreamTracker — everything on_event() and
/// flush() touch: the SMC filter state, the RNG stream position, every open
/// epoch window, the virtual-time cursors, and the ingestion counters.
/// Nothing else: no wall-clock telemetry and no value derivable from the
/// rest (a window's seen count is its set `seen` bits; "has any epoch
/// fired" is stats.epochs_fired > 0), so equal event sequences give equal
/// states. Construction inputs (model, sniffer set, config, seed) are
/// deliberately absent: a restore target must be built with the same
/// inputs, and restore_state() validates shapes and particle values.
/// Serialized as FLUXFPC1 by stream/checkpoint.hpp.
struct StreamTrackerState {
  /// mt19937_64 engine state, text-serialized via operator<< — integral
  /// words, so the round-trip is exact.
  std::string rng;
  core::SmcState smc;
  std::vector<WindowState> open;  ///< strictly ascending epoch order
  double now = 0.0;
  double last_step_time = 0.0;
  std::uint32_t last_fired_epoch = 0;  ///< meaningful once an epoch fired
  StreamStats stats;
};

/// The paper's asynchronous-updating SMC tracker (§4.E, Algorithm 4.1)
/// turned event-driven: readings arrive one at a time (in any order, with
/// duplicates and stragglers) and are folded into per-epoch observation
/// windows over the session's sniffer set; when a window closes — all
/// expected readings in, event-time deadline lapsed, or reordering
/// backstop — the window becomes a SparseObjective (never-heard-from slots
/// stay net::kMissingReading and are masked) and one SmcTracker::step runs.
///
/// Folding rules:
///  * duplicate — a (epoch, node) slot reported twice keeps the LATEST
///    reading (mirrors SparseObjective's batch-side dedup);
///  * late — events for an epoch that already fired are counted and
///    dropped (windows fire in strictly ascending epoch order);
///  * out-of-order — events for a future epoch open a new window; up to
///    max_open_epochs windows accumulate concurrently.
///
/// Determinism: all state is driven by event *content and arrival order*
/// only — same event sequence in, bit-identical estimates out, regardless
/// of wall-clock pacing or what thread calls on_event(). The RNG is owned
/// by the session and seeded at construction.
class StreamTracker {
 public:
  /// Model-generic form: any ObservationModel backend (cloned — the
  /// session owns an immutable copy). `field` is the tracking domain the
  /// SMC samples candidates in (must outlive the tracker). `site_keys` are
  /// the FluxEvent::node values that address the observation sites —
  /// original-graph node indices for point models, link indices (see
  /// net::enumerate_links) for link models — and `sites` their geometry
  /// (same length, non-empty). `num_users` is the number of jointly
  /// tracked users in this session (usually 1). Throws
  /// std::invalid_argument on size mismatch, empty sites, duplicate keys,
  /// or a bad config.
  StreamTracker(const core::ObservationModel& model, const geom::Field& field,
                std::vector<std::size_t> site_keys,
                std::vector<core::Site> sites, std::size_t num_users,
                StreamTrackerConfig config, std::uint64_t seed);

  /// Flux form: `sniffer_nodes` are original-graph node indices,
  /// `sniffer_positions` their positions (same length, non-empty); the
  /// tracking field is the model's own.
  StreamTracker(const core::FluxModel& model,
                std::vector<std::size_t> sniffer_nodes,
                std::vector<geom::Vec2> sniffer_positions,
                std::size_t num_users, StreamTrackerConfig config,
                std::uint64_t seed);

  /// Convenience: sniffer positions read off the graph.
  StreamTracker(const core::FluxModel& model,
                const net::UnitDiskGraph& graph,
                std::vector<std::size_t> sniffer_nodes, std::size_t num_users,
                StreamTrackerConfig config, std::uint64_t seed);

  /// Folds one event; returns the results of every epoch window the event
  /// caused to fire (usually none or one).
  std::vector<EpochResult> on_event(const FluxEvent& event);

  /// Fires all still-open windows in epoch order (end of stream).
  std::vector<EpochResult> flush();

  /// Current position estimate per tracked slot.
  geom::Vec2 estimate(std::size_t user) const { return smc_.estimate(user); }
  std::size_t num_users() const { return smc_.num_users(); }
  /// Virtual-time cursor: the newest event timestamp folded so far (what a
  /// quiesced-estimate reader reports as the estimate's time).
  double now() const { return now_; }
  std::size_t open_windows() const { return open_.size(); }
  const StreamStats& stats() const { return stats_; }
  const StreamTrackerConfig& config() const { return config_; }
  const std::vector<std::size_t>& sniffer_nodes() const {
    return sniffer_nodes_;
  }
  /// The session's observation backend (shared, immutable).
  const core::ObservationModel& model() const { return *model_; }

  /// Snapshot of all mutable session state. A tracker constructed with the
  /// same inputs and restored from the snapshot folds every subsequent
  /// event bit-identically to one that never stopped (readings round-trip
  /// NaN-exactly; the RNG resumes mid-stream).
  StreamTrackerState save_state() const;
  /// Restores a snapshot from a tracker with the same sniffer count.
  /// Throws std::invalid_argument on malformed state (window slot counts
  /// that do not match this tracker's sniffer set, non-ascending window
  /// epochs, more than max_open_epochs open windows, a window for an epoch
  /// that already fired, an unparseable RNG stream, particles or weights
  /// the filter cannot produce — see SmcTracker::restore_state) — the
  /// checkpoint layer converts these into typed errors.
  void restore_state(const StreamTrackerState& state);

 private:
  struct Window {
    std::vector<double> readings;  ///< per sniffer slot; missing until seen
    std::vector<bool> seen;        ///< slot reported at least once
    std::size_t seen_count = 0;
    double newest_time = 0.0;  ///< max event time folded into this window
  };

  /// Fires the oldest open window (which must exist).
  EpochResult fire_oldest();
  /// Closes every window made eligible by the current virtual time.
  void collect_ripe(std::vector<EpochResult>& out);

  /// Shared immutable backend: per-epoch objectives share it instead of
  /// cloning a model copy per fired window.
  std::shared_ptr<const core::ObservationModel> model_;
  std::vector<std::size_t> sniffer_nodes_;  ///< site keys (see ctor)
  std::vector<core::Site> sites_;
  std::unordered_map<std::uint32_t, std::size_t> node_slot_;
  StreamTrackerConfig config_;
  geom::Rng rng_;
  core::SmcTracker smc_;

  std::map<std::uint32_t, Window> open_;  ///< epoch -> window, ordered
  double now_ = 0.0;          ///< newest event time seen (virtual clock)
  double last_step_time_ = 0.0;
  std::uint32_t last_fired_epoch_ = 0;
  StreamStats stats_;
};

}  // namespace fluxfp::stream
