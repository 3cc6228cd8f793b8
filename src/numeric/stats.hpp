#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fluxfp::numeric {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased sample standard deviation; 0 for fewer than two samples.
double stddev(std::span<const double> xs);

double min_value(std::span<const double> xs);
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

/// Median, i.e. percentile(xs, 0.5).
double median(std::span<const double> xs);

/// An empirical CDF over a sample: evaluate(v) = fraction of samples <= v.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Fraction of samples <= v.
  double evaluate(double v) const;
  /// Smallest sample value q with evaluate(q) >= p (p in (0,1]).
  double quantile(double p) const;
  std::size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// A fixed-bin histogram over [lo, hi); values outside are clamped into the
/// first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double v);
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  /// Center of bin `i`.
  double bin_center(std::size_t i) const;
  /// Fraction of all samples in bin `i`; 0 when empty.
  double fraction(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double v);
  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< unbiased; 0 for n < 2
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fluxfp::numeric
