#include "eval/experiment.hpp"

#include <stdexcept>

#include "net/routing.hpp"
#include "numeric/parallel.hpp"
#include "sim/sniffer.hpp"

namespace fluxfp::eval {

net::UnitDiskGraph build_connected_network(const NetworkSpec& spec,
                                           const geom::Field& field,
                                           geom::Rng& rng, int max_tries) {
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    net::UnitDiskGraph graph(net::deploy(spec.kind, field, spec.nodes, rng),
                             spec.radius);
    if (graph.is_connected()) {
      return graph;
    }
  }
  throw std::runtime_error(
      "build_connected_network: no connected deployment found; raise the "
      "radius or node count");
}

double estimate_d_min(const net::UnitDiskGraph& graph,
                      const geom::Field& field, geom::Rng& rng) {
  const net::CollectionTree probe =
      net::build_collection_tree(graph, field.center(), rng);
  const double r = net::average_hop_length(graph, probe);
  // Half the average hop length keeps the near-sink model prediction sharp
  // (a tight clamp blurs the objective's peak and widens the top-M cluster)
  // while still bounding the 1/d divergence. Fall back to a quarter of the
  // communication radius for degenerate graphs.
  return r > 0.0 ? 0.5 * r : graph.radius() / 4.0;
}

core::SparseObjective make_objective(const core::ObservationModel& model,
                                     const net::UnitDiskGraph& graph,
                                     const net::FluxMap& flux,
                                     std::span<const std::size_t> samples,
                                     bool smooth) {
  std::vector<geom::Vec2> positions;
  positions.reserve(samples.size());
  for (std::size_t i : samples) {
    positions.push_back(graph.position(i));
  }
  return core::SparseObjective(
      model, std::move(positions),
      net::gather_readings(graph, flux, samples, smooth));
}

std::vector<double> sniffed_readings(const net::UnitDiskGraph& graph,
                                     const net::FluxMap& flux,
                                     std::span<const std::size_t> samples,
                                     bool smooth) {
  return net::gather_readings(graph, flux, samples, smooth);
}

core::SparseObjective make_objective_from_readings(
    const core::ObservationModel& model, const net::UnitDiskGraph& graph,
    std::span<const std::size_t> samples, std::vector<double> readings) {
  std::vector<geom::Vec2> positions;
  positions.reserve(samples.size());
  for (std::size_t i : samples) {
    positions.push_back(graph.position(i));
  }
  return core::SparseObjective(model, std::move(positions),
                               std::move(readings));
}

std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> salts) {
  // SplitMix64-style mixing.
  std::uint64_t h = base + 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t s : salts) {
    h += s + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h = h ^ (h >> 31);
  }
  return h;
}

std::vector<double> run_trials(
    std::size_t count, const std::function<double(std::size_t)>& trial) {
  std::vector<double> values(count);
  numeric::parallel_for(0, count,
                        [&](std::size_t t) { values[t] = trial(t); });
  return values;
}

}  // namespace fluxfp::eval
