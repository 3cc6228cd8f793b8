#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fluxfp::numeric {

double mean(std::span<const double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (double x : xs) {
    acc += x;
  }
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) {
    return 0.0;
  }
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) {
    acc += (x - m) * (x - m);
  }
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double min_value(std::span<const double> xs) {
  if (xs.empty()) {
    throw std::invalid_argument("min_value: empty span");
  }
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  if (xs.empty()) {
    throw std::invalid_argument("max_value: empty span");
  }
  return *std::max_element(xs.begin(), xs.end());
}

double sum(std::span<const double> xs) {
  double acc = 0.0;
  for (double x : xs) {
    acc += x;
  }
  return acc;
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty() || p < 0.0 || p > 1.0) {
    throw std::invalid_argument("percentile: empty sample or p outside [0,1]");
  }
  // NaN compares false against everything, so sorting a NaN-bearing range
  // violates std::sort's strict-weak-order contract: the permutation (and
  // thus every order statistic) would depend on where the NaNs happened to
  // sit. Rank the finite subset instead.
  std::vector<double> sorted;
  sorted.reserve(xs.size());
  for (double x : xs) {
    if (!std::isnan(x)) {
      sorted.push_back(x);
    }
  }
  if (sorted.empty()) {
    throw std::invalid_argument("percentile: every sample is NaN");
  }
  std::sort(sorted.begin(), sorted.end());
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // std::lerp is exact when both neighbours are equal and monotone in
  // frac; the two-product form can land one ulp below a run of ties.
  return std::lerp(sorted[lo], sorted[hi], frac);
}

double median(std::span<const double> xs) { return percentile(xs, 0.5); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::evaluate(double v) const {
  if (sorted_.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), v);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double p) const {
  if (sorted_.empty() || p <= 0.0 || p > 1.0) {
    throw std::invalid_argument("EmpiricalCdf::quantile: bad input");
  }
  const std::size_t idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted_.size()))) - 1;
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: bad range or zero bins");
  }
}

void Histogram::add(double v) {
  const double t = (v - lo_) / (hi_ - lo_);
  auto bin = static_cast<long>(t * static_cast<double>(counts_.size()));
  bin = std::clamp(bin, 0L, static_cast<long>(counts_.size()) - 1L);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_center(std::size_t i) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * w;
}

double Histogram::fraction(std::size_t i) const {
  return total_ == 0 ? 0.0
                     : static_cast<double>(counts_.at(i)) /
                           static_cast<double>(total_);
}

void RunningStats::add(double v) {
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  const double delta = v - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (v - mean_);
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace fluxfp::numeric
