#include "sim/faults.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/sniffer.hpp"

namespace fluxfp::sim {

namespace {

/// SplitMix64-style mix of the plan seed with a round/stream tag, so every
/// round gets an independent deterministic RNG stream.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt) {
  std::uint64_t h = base + 0x9e3779b97f4a7c15ULL * (salt + 1);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Draws floor/ceil(fraction * n) distinct indices from [0, n).
std::vector<std::size_t> draw_fraction(std::size_t n, double fraction,
                                       geom::Rng& rng) {
  if (fraction <= 0.0 || n == 0) {
    return {};
  }
  const auto count = std::min(
      n, static_cast<std::size_t>(fraction * static_cast<double>(n) + 0.5));
  if (count == 0) {
    return {};
  }
  return sample_nodes(n, count, rng);
}

}  // namespace

SurvivingNetwork surviving_network(const net::UnitDiskGraph& original,
                                   std::span<const std::size_t> crashed) {
  std::vector<bool> dead(original.size(), false);
  for (std::size_t i : crashed) {
    if (i >= original.size()) {
      throw std::invalid_argument("surviving_network: node out of range");
    }
    dead[i] = true;
  }
  std::vector<geom::Vec2> positions;
  std::vector<std::size_t> to_original;
  std::vector<std::size_t> from_original(original.size(), net::kNoNode);
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (dead[i]) {
      continue;
    }
    from_original[i] = to_original.size();
    to_original.push_back(i);
    positions.push_back(original.position(i));
  }
  if (positions.empty()) {
    throw std::invalid_argument("surviving_network: every node crashed");
  }
  return {net::UnitDiskGraph(std::move(positions), original.radius()),
          std::move(to_original), std::move(from_original)};
}

net::FluxMap expand_to_original(const SurvivingNetwork& surviving,
                                const net::FluxMap& surviving_flux) {
  if (surviving_flux.size() != surviving.graph.size()) {
    throw std::invalid_argument("expand_to_original: size mismatch");
  }
  net::FluxMap out(surviving.from_original.size(), 0.0);
  for (std::size_t s = 0; s < surviving_flux.size(); ++s) {
    out[surviving.to_original[s]] = surviving_flux[s];
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, std::size_t num_nodes,
                             std::vector<std::size_t> sniffers)
    : plan_(plan), num_nodes_(num_nodes), sniffers_(std::move(sniffers)) {
  if (num_nodes_ == 0) {
    throw std::invalid_argument("FaultInjector: empty network");
  }
  for (std::size_t s : sniffers_) {
    if (s >= num_nodes_) {
      throw std::invalid_argument("FaultInjector: sniffer out of range");
    }
  }
  if (plan_.crash_fraction < 0.0 || plan_.crash_fraction > 1.0 ||
      plan_.outage_prob < 0.0 || plan_.outage_prob > 1.0 ||
      plan_.byzantine_fraction < 0.0 || plan_.byzantine_fraction > 1.0) {
    throw std::invalid_argument("FaultInjector: fractions must be in [0,1]");
  }
  {
    geom::Rng rng(mix_seed(plan_.seed, 0xc4a5));
    crash_set_ = draw_fraction(num_nodes_, plan_.crash_fraction, rng);
    // Never crash the whole network: keep at least one survivor.
    if (crash_set_.size() == num_nodes_) {
      crash_set_.pop_back();
    }
  }
  {
    geom::Rng rng(mix_seed(plan_.seed, 0xb12a));
    byzantine_.assign(sniffers_.size(), false);
    for (std::size_t slot :
         draw_fraction(sniffers_.size(), plan_.byzantine_fraction, rng)) {
      byzantine_[slot] = true;
    }
  }
  crashed_now_.assign(num_nodes_, false);
  outage_.assign(sniffers_.size(), false);
  begin_round(0);
}

void FaultInjector::begin_round(int round) {
  round_ = round;
  const bool crashes_active = round_ >= plan_.crash_round;
  crashed_list_.clear();
  std::fill(crashed_now_.begin(), crashed_now_.end(), false);
  if (crashes_active) {
    for (std::size_t i : crash_set_) {
      crashed_now_[i] = true;
    }
    crashed_list_ = crash_set_;
  }
  std::fill(outage_.begin(), outage_.end(), false);
  if (plan_.outage_prob > 0.0) {
    geom::Rng rng(
        mix_seed(plan_.seed, 0x07abu + static_cast<std::uint64_t>(round)));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (std::size_t slot = 0; slot < sniffers_.size(); ++slot) {
      outage_[slot] = unit(rng) < plan_.outage_prob;
    }
  }
}

const std::vector<std::size_t>& FaultInjector::crashed() const {
  return crashed_list_;
}

bool FaultInjector::node_alive(std::size_t node) const {
  if (node >= num_nodes_) {
    throw std::invalid_argument("node_alive: node out of range");
  }
  return !crashed_now_[node];
}

bool FaultInjector::burst_active() const {
  return plan_.burst_start >= 0 && round_ >= plan_.burst_start &&
         round_ < plan_.burst_start + plan_.burst_length;
}

void FaultInjector::corrupt(std::vector<double>& readings) const {
  if (readings.size() != sniffers_.size()) {
    throw std::invalid_argument("corrupt: readings/sniffer size mismatch");
  }
  const bool burst = burst_active();
  for (std::size_t slot = 0; slot < readings.size(); ++slot) {
    if (burst || outage_[slot] || crashed_now_[sniffers_[slot]]) {
      readings[slot] = net::kMissingReading;
      continue;
    }
    if (byzantine_[slot] && !net::is_missing(readings[slot])) {
      readings[slot] *= plan_.byzantine_gain;
    }
  }
}

std::vector<stream::FluxEvent> apply_event_faults(
    std::span<const stream::FluxEvent> events, const EventFaultPlan& plan) {
  geom::Rng rng(plan.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Delivery-order key per surviving event. Four draws per input event in
  // a fixed sequence keep the fault pattern a pure function of (seed,
  // event index) — independent of earlier outcomes.
  struct Delivery {
    stream::FluxEvent event;
    double arrival;
  };
  std::vector<Delivery> deliveries;
  deliveries.reserve(events.size());
  for (const stream::FluxEvent& e : events) {
    const double u_drop = unit(rng);
    const double u_late = unit(rng);
    const double u_jitter = unit(rng);
    const double u_dup = unit(rng);
    if (u_drop < plan.drop_prob) {
      continue;
    }
    double arrival = e.time + u_jitter * plan.jitter;
    if (u_late < plan.late_prob) {
      arrival += plan.late_delay;
    }
    deliveries.push_back({e, arrival});
    if (u_dup < plan.dup_prob) {
      deliveries.push_back({e, arrival + plan.dup_delay});
    }
  }
  std::stable_sort(deliveries.begin(), deliveries.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.arrival < b.arrival;
                   });
  std::vector<stream::FluxEvent> out;
  out.reserve(deliveries.size());
  for (const Delivery& d : deliveries) {
    out.push_back(d.event);
  }
  return out;
}

}  // namespace fluxfp::sim
