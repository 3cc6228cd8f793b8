#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fluxfp::numeric {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased sample standard deviation; 0 for fewer than two samples.
double stddev(std::span<const double> xs);

double max_value(std::span<const double> xs);
double sum(std::span<const double> xs);

/// p-th percentile (p in [0,1]) with linear interpolation between order
/// statistics: non-decreasing in p, and exact where both neighbours are
/// equal (a sample of ties returns the tie for every p). NaN samples are
/// excluded before sorting (NaN breaks the strict weak order std::sort
/// requires, which would make the result depend on where the NaNs sat in
/// the input). Throws std::invalid_argument for an
/// empty span, p outside [0,1], or an all-NaN sample.
double percentile(std::span<const double> xs, double p);

/// An empirical CDF over a sample: evaluate(v) = fraction of samples <= v.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Fraction of samples <= v.
  double evaluate(double v) const;

 private:
  std::vector<double> sorted_;
};

/// Streaming count/mean/min/max accumulator (Welford's running mean).
class RunningStats {
 public:
  void add(double v);
  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fluxfp::numeric
