#include "privacy/countermeasure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/routing.hpp"

namespace fluxfp::privacy {

Countermeasure::Countermeasure(CountermeasureConfig config)
    : config_(config) {
  switch (config_.kind) {
    case CountermeasureKind::kNone:
      break;
    case CountermeasureKind::kConstantPadding:
      if (config_.pad_level < 0.0) {
        throw std::invalid_argument("Countermeasure: negative pad level");
      }
      break;
    case CountermeasureKind::kDummyTrees:
      if (config_.dummy_stretch < 0.0) {
        throw std::invalid_argument("Countermeasure: negative dummy stretch");
      }
      break;
    case CountermeasureKind::kStretchJitter:
      if (config_.jitter_sigma < 0.0) {
        throw std::invalid_argument("Countermeasure: negative jitter sigma");
      }
      break;
  }
}

void Countermeasure::apply(net::FluxMap& flux,
                           const net::UnitDiskGraph& graph,
                           geom::Rng& rng) const {
  if (flux.size() != graph.size()) {
    throw std::invalid_argument("Countermeasure::apply: size mismatch");
  }
  last_overhead_ = 0.0;
  switch (config_.kind) {
    case CountermeasureKind::kNone:
      return;
    case CountermeasureKind::kConstantPadding: {
      for (double& v : flux) {
        if (v < config_.pad_level) {
          last_overhead_ += config_.pad_level - v;
          v = config_.pad_level;
        }
      }
      return;
    }
    case CountermeasureKind::kDummyTrees: {
      std::uniform_real_distribution<double> ux(0.0, 1.0);
      for (std::size_t d = 0; d < config_.dummy_count; ++d) {
        // Root the chaff tree at a random node position.
        std::uniform_int_distribution<std::size_t> pick(0, graph.size() - 1);
        const geom::Vec2 root = graph.position(pick(rng));
        const net::CollectionTree tree =
            net::build_collection_tree(graph, root, rng);
        const net::FluxMap chaff = net::tree_flux(tree, config_.dummy_stretch);
        for (std::size_t i = 0; i < flux.size(); ++i) {
          flux[i] += chaff[i];
          last_overhead_ += chaff[i];
        }
      }
      return;
    }
    case CountermeasureKind::kStretchJitter: {
      if (config_.jitter_sigma <= 0.0) {
        return;
      }
      // Lognormal with unit mean: mu = -sigma^2/2.
      std::lognormal_distribution<double> factor(
          -0.5 * config_.jitter_sigma * config_.jitter_sigma,
          config_.jitter_sigma);
      for (double& v : flux) {
        const double nv = v * factor(rng);
        last_overhead_ += std::max(0.0, nv - v);
        v = nv;
      }
      return;
    }
  }
}

}  // namespace fluxfp::privacy
