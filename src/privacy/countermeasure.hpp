#pragma once

#include "geom/sampling.hpp"
#include "net/flux.hpp"
#include "net/graph.hpp"

namespace fluxfp::privacy {

/// Traffic-reshaping countermeasures against flux fingerprinting — the
/// "future work" of §6 ("reshaping the network traffics to prevent
/// malicious detection"), implemented so the ablation bench can measure how
/// much reshaping is needed to break the attack.
enum class CountermeasureKind {
  kNone,
  /// Every node pads its transmissions up to a floor: observed flux becomes
  /// max(flux, pad_level). Flattens the low end of the flux surface.
  kConstantPadding,
  /// The network injects chaff: extra collection trees rooted at random
  /// positions with a fixed stretch, indistinguishable from real sinks.
  kDummyTrees,
  /// Each node randomizes its forwarding amount by a lognormal factor
  /// (duplication/suppression), destroying the fine structure of the map.
  kStretchJitter,
};

/// Parameters for each kind (only the relevant fields are read).
struct CountermeasureConfig {
  CountermeasureKind kind = CountermeasureKind::kNone;
  double pad_level = 0.0;        ///< kConstantPadding: absolute flux floor
  std::size_t dummy_count = 0;   ///< kDummyTrees: chaff trees per window
  double dummy_stretch = 1.0;    ///< kDummyTrees: stretch of each chaff tree
  double jitter_sigma = 0.0;     ///< kStretchJitter: lognormal sigma
};

/// Applies a countermeasure to a window's flux map in place, as the
/// network would before an adversary sniffs it.
class Countermeasure {
 public:
  explicit Countermeasure(CountermeasureConfig config);

  void apply(net::FluxMap& flux, const net::UnitDiskGraph& graph,
             geom::Rng& rng) const;

  const CountermeasureConfig& config() const { return config_; }

  /// Extra per-window transmission overhead this countermeasure added to
  /// the last `apply` call, in flux units (the defense's cost metric).
  double last_overhead() const { return last_overhead_; }

 private:
  CountermeasureConfig config_;
  mutable double last_overhead_ = 0.0;
};

}  // namespace fluxfp::privacy
