#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/sampling.hpp"
#include "net/flux.hpp"
#include "net/graph.hpp"
#include "stream/event.hpp"

namespace fluxfp::sim {

/// Fault taxonomy (see DESIGN.md "Fault model & graceful degradation"):
///  * node crash      — a sensor dies permanently; it relays nothing and
///                      disappears from the communication graph before flux
///                      generation.
///  * sniffer outage  — a passive sniffer misses a whole window; its reading
///                      for that round is missing (net::kMissingReading).
///  * byzantine       — a sniffer reports corrupted values (stuck amplifier,
///                      compromised device): readings scaled by a gain.
///  * burst loss      — every sniffer goes dark for a contiguous run of
///                      rounds (backhaul outage / jamming).
enum class FaultKind { kNodeCrash, kSnifferOutage, kByzantine, kBurstLoss };

/// Declarative, seeded fault schedule. All randomness is derived from
/// `seed` (crash/byzantine sets once, outage draws per round), so a plan
/// replays identically regardless of how often the injector is queried.
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Fraction of nodes that crash permanently, taking effect at
  /// `crash_round` (inclusive).
  double crash_fraction = 0.0;
  int crash_round = 0;

  /// Per-sniffer, per-round probability of missing the window entirely.
  double outage_prob = 0.0;

  /// Fraction of sniffers that are permanently byzantine; their readings
  /// are multiplied by `byzantine_gain`.
  double byzantine_fraction = 0.0;
  double byzantine_gain = 5.0;

  /// Total sniffer blackout for rounds in [burst_start, burst_start +
  /// burst_length). burst_start < 0 disables the burst.
  int burst_start = -1;
  int burst_length = 0;
};

/// The original graph restricted to nodes that survived a crash set,
/// with index maps in both directions. `from_original[i]` is
/// net::kNoNode for crashed nodes.
struct SurvivingNetwork {
  net::UnitDiskGraph graph;
  std::vector<std::size_t> to_original;
  std::vector<std::size_t> from_original;
};

/// Builds the surviving subnetwork after removing `crashed` (sorted or
/// not; duplicates ignored). The result may be disconnected — collection
/// trees over it degrade to partial flux rather than failing. Throws
/// std::invalid_argument when every node crashed.
SurvivingNetwork surviving_network(const net::UnitDiskGraph& original,
                                   std::span<const std::size_t> crashed);

/// Expands a flux map over the surviving graph back to the original node
/// indexing. Crashed nodes carry 0 — a dead node genuinely transmits
/// nothing, so its *flux* is a true zero (unlike a sniffer outage, where
/// the reading is missing).
net::FluxMap expand_to_original(const SurvivingNetwork& surviving,
                                const net::FluxMap& surviving_flux);

/// Deterministically schedules and applies the faults of a FaultPlan
/// against one network + sniffer set over a sequence of rounds. Composable
/// with FluxNoise (apply noise to the flux map first, then corrupt the
/// gathered readings) and with the packet-level simulator (run it over the
/// surviving network's trees).
class FaultInjector {
 public:
  /// `sniffers` are original-graph node indices. The crash and byzantine
  /// sets are drawn immediately from plan.seed; per-round outage draws use
  /// an independent stream per round.
  FaultInjector(FaultPlan plan, std::size_t num_nodes,
                std::vector<std::size_t> sniffers);

  /// Advances the injector to `round` (any order is allowed; the fault
  /// draws depend only on the round number and the plan seed).
  void begin_round(int round);
  int round() const { return round_; }

  /// Nodes crashed as of the current round (sorted original indices;
  /// empty before crash_round).
  const std::vector<std::size_t>& crashed() const;
  bool node_alive(std::size_t node) const;
  bool burst_active() const;

  /// Applies this round's sniffer-level faults in place to readings
  /// gathered at the injector's sniffer set (same order): burst/outage and
  /// crashed-node sniffers become missing, byzantine sniffers are scaled.
  /// Throws std::invalid_argument on a size mismatch.
  void corrupt(std::vector<double>& readings) const;

  const std::vector<std::size_t>& sniffers() const { return sniffers_; }
  /// Per-sniffer-slot byzantine flags (aligned with sniffers()).
  const std::vector<bool>& byzantine() const { return byzantine_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::size_t num_nodes_;
  std::vector<std::size_t> sniffers_;
  std::vector<std::size_t> crash_set_;  ///< drawn once; active from crash_round
  std::vector<bool> crashed_now_;       ///< per node, at the current round
  std::vector<std::size_t> crashed_list_;
  std::vector<bool> byzantine_;         ///< per sniffer slot
  std::vector<bool> outage_;            ///< per sniffer slot, this round
  int round_ = 0;
};

/// Event-level faults for the streaming runtime: the transport between the
/// sniffers and the tracking service drops, duplicates, delays, and
/// reorders individual reading reports. Complements the reading-level
/// FaultPlan (which corrupts *values*): these faults corrupt *delivery*.
/// All randomness derives from `seed`, per event in input order, so a plan
/// applied to the same event sequence is always the same fault pattern.
struct EventFaultPlan {
  std::uint64_t seed = 0;

  /// Per-event probability the report is lost entirely.
  double drop_prob = 0.0;

  /// Per-event probability the report is delivered twice (the duplicate
  /// arrives `dup_delay` later in event time — usually still inside its
  /// window, exercising the tracker's keep-latest folding).
  double dup_prob = 0.0;
  double dup_delay = 0.1;

  /// Per-event probability the report straggles: delivery is delayed by
  /// `late_delay` in event time. With late_delay beyond the tracker's
  /// close_delay the event arrives after its window fired and must be
  /// counted + dropped as late.
  double late_prob = 0.0;
  double late_delay = 2.0;

  /// Uniform [0, jitter) delivery perturbation applied to every surviving
  /// event — out-of-order arrival within a window.
  double jitter = 0.0;
};

/// Applies `plan` to a time-ordered event sequence and returns the events
/// in DELIVERY order (what the ingestion queue sees). Event timestamps are
/// left untouched — lateness and reordering are expressed purely through
/// sequence position, mirroring a transport that delays packets without
/// rewriting them.
std::vector<stream::FluxEvent> apply_event_faults(
    std::span<const stream::FluxEvent> events, const EventFaultPlan& plan);

}  // namespace fluxfp::sim
