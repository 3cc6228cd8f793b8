#include "sim/measurement.hpp"

#include "net/routing.hpp"

namespace fluxfp::sim {

net::FluxMap FluxEngine::measure(std::span<const Collection> collections,
                                 geom::Rng& rng) const {
  net::FluxMap total(graph_->size(), 0.0);
  double hop_acc = 0.0;
  std::size_t hop_n = 0;
  for (const Collection& c : collections) {
    const net::CollectionTree tree =
        net::build_collection_tree(*graph_, c.position, rng);
    net::accumulate(total, net::tree_flux(tree, c.stretch));
    hop_acc += net::average_hop_length(*graph_, tree);
    ++hop_n;
  }
  if (hop_n > 0) {
    last_hop_length_ = hop_acc / static_cast<double>(hop_n);
  }
  return total;
}

void FluxEngine::apply_noise(net::FluxMap& flux, const FluxNoise& noise,
                             geom::Rng& rng) {
  if (noise.relative_sigma <= 0.0 && noise.dropout_prob <= 0.0) {
    return;
  }
  // normal_distribution requires a positive sigma; dropout-only noise
  // never draws from it.
  std::normal_distribution<double> gauss(
      0.0, noise.relative_sigma > 0.0 ? noise.relative_sigma : 1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : flux) {
    if (noise.dropout_prob > 0.0 && unit(rng) < noise.dropout_prob) {
      v = net::kMissingReading;
      continue;
    }
    if (noise.relative_sigma > 0.0) {
      v = std::max(0.0, v * (1.0 + gauss(rng)));
    }
  }
}

}  // namespace fluxfp::sim
