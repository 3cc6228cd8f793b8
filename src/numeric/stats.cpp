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

void RunningStats::add(double v) {
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  mean_ += (v - mean_) / static_cast<double>(n_);
}

}  // namespace fluxfp::numeric
