#include "core/nls.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/flux.hpp"
#include "numeric/matrix.hpp"
#include "numeric/nnls.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd/kernels.hpp"
#include "obs/instrument.hpp"

namespace fluxfp::core {

std::vector<double> robust_weights(std::span<const double> residuals,
                                   const RobustFitConfig& config) {
  std::vector<double> w;
  robust_weights(residuals, config, w);
  return w;
}

void robust_weights(std::span<const double> residuals,
                    const RobustFitConfig& config, std::vector<double>& out) {
  std::vector<double>& w = out;
  w.assign(residuals.size(), 1.0);
  if (residuals.empty() || config.loss == RobustLoss::kNone) {
    return;
  }
  std::vector<double> abs_r(residuals.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    abs_r[i] = std::abs(residuals[i]);
  }
  if (config.loss == RobustLoss::kTrimmed) {
    const double trim = std::clamp(config.trim_fraction, 0.0, 0.9);
    std::vector<double> sorted = abs_r;
    const std::size_t kept = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil((1.0 - trim) * static_cast<double>(sorted.size()))));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<long>(kept - 1),
                     sorted.end());
    const double threshold = sorted[kept - 1];
    for (std::size_t i = 0; i < abs_r.size(); ++i) {
      w[i] = abs_r[i] <= threshold ? 1.0 : 0.0;
    }
    return;
  }
  // Huber: robust scale from the normalized MAD about the median residual.
  std::vector<double> tmp(residuals.begin(), residuals.end());
  const std::size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<long>(mid),
                   tmp.end());
  const double med = tmp[mid];
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    tmp[i] = std::abs(residuals[i] - med);
  }
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<long>(mid),
                   tmp.end());
  const double sigma = 1.4826 * tmp[mid];
  double max_abs = 0.0;
  for (double a : abs_r) {
    max_abs = std::max(max_abs, a);
  }
  if (!(sigma > 1e-12 * (1.0 + max_abs))) {
    return;  // degenerate scale: most residuals identical, nothing to clip
  }
  const double clip = config.huber_k * sigma;
  for (std::size_t i = 0; i < abs_r.size(); ++i) {
    w[i] = abs_r[i] > clip ? clip / abs_r[i] : 1.0;
  }
#if defined(FLUXFP_OBS_ENABLED)
  if (obs::enabled()) {
    std::uint64_t down = 0;
    for (double wi : w) {
      down += wi < 1.0 ? 1 : 0;
    }
    FLUXFP_OBS_COUNTER_ADD("fluxfp_core_robust_downweighted_total",
                           "Readings clipped by the Huber weight", down);
  }
#endif
}

SparseObjective::SparseObjective(const ObservationModel& model,
                                 std::vector<geom::Vec2> sample_positions,
                                 std::vector<double> measured)
    : SparseObjective(model, std::move(sample_positions), std::move(measured),
                      std::vector<bool>()) {}

SparseObjective::SparseObjective(const ObservationModel& model,
                                 std::vector<geom::Vec2> sample_positions,
                                 std::vector<double> measured,
                                 const std::vector<bool>& valid)
    : model_(model.clone()),
      sample_positions_(std::move(sample_positions)),
      // Point sites: both endpoints at the sniffer position.
      positions_b_(sample_positions_),
      measured_(std::move(measured)) {
  compact(valid);
}

SparseObjective::SparseObjective(const ObservationModel& model,
                                 std::vector<Site> sites,
                                 std::vector<double> measured)
    : SparseObjective(model.clone(), std::move(sites), std::move(measured),
                      std::vector<bool>()) {}

SparseObjective::SparseObjective(std::shared_ptr<const ObservationModel> model,
                                 std::vector<Site> sites,
                                 std::vector<double> measured,
                                 const std::vector<bool>& valid)
    : model_(std::move(model)), measured_(std::move(measured)) {
  if (!model_) {
    throw std::invalid_argument("SparseObjective: null model");
  }
  sample_positions_.reserve(sites.size());
  positions_b_.reserve(sites.size());
  for (const Site& s : sites) {
    sample_positions_.push_back(s.a);
    positions_b_.push_back(s.b);
  }
  compact(valid);
}

void SparseObjective::compact(const std::vector<bool>& valid) {
  if (sample_positions_.empty() ||
      sample_positions_.size() != measured_.size() ||
      (!valid.empty() && valid.size() != measured_.size())) {
    throw std::invalid_argument(
        "SparseObjective: samples empty or size mismatch");
  }
  // Compact to live samples: masked-out or missing readings carry no
  // evidence and are excluded from the fit entirely. A repeated site (the
  // same sniffer — or the same link, BOTH endpoints equal — reported twice
  // in one snapshot; routine in the streaming runtime, where transports
  // duplicate reports) keeps the LATEST live reading rather than
  // double-counting the row. "Latest" is pinned by arrival order: the
  // ascending-index scan overwrites the surviving row with every later
  // duplicate it meets, so the tie-break at equal timestamps is
  // last-arrival wins, index-ordered — independent of thread count, which
  // never reorders the input vector.
  std::size_t live = 0;
  for (std::size_t i = 0; i < measured_.size(); ++i) {
    const bool ok =
        (valid.empty() || valid[i]) && !net::is_missing(measured_[i]);
    if (!ok) {
      continue;
    }
    bool duplicate = false;
    for (std::size_t j = 0; j < live; ++j) {
      if (sample_positions_[j].x == sample_positions_[i].x &&
          sample_positions_[j].y == sample_positions_[i].y &&
          positions_b_[j].x == positions_b_[i].x &&
          positions_b_[j].y == positions_b_[i].y) {
        measured_[j] = measured_[i];
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    sample_positions_[live] = sample_positions_[i];
    positions_b_[live] = positions_b_[i];
    measured_[live] = measured_[i];
    ++live;
  }
  masked_count_ = measured_.size() - live;
  sample_positions_.resize(live);
  positions_b_.resize(live);
  measured_.resize(live);
  measured_norm_ = numeric::norm(measured_);
  // Structure-of-arrays coordinate rows for the SIMD shape kernels, built
  // once per objective over the compacted live sites.
  qx_.resize(live);
  qy_.resize(live);
  bx_.resize(live);
  by_.resize(live);
  for (std::size_t i = 0; i < live; ++i) {
    qx_[i] = sample_positions_[i].x;
    qy_[i] = sample_positions_[i].y;
    bx_[i] = positions_b_[i].x;
    by_[i] = positions_b_[i].y;
  }
}

std::vector<double> SparseObjective::shape_column(geom::Vec2 sink) const {
  std::vector<double> col;
  shape_column(sink, col);
  return col;
}

void SparseObjective::shape_column(geom::Vec2 sink,
                                   std::vector<double>& out) const {
  out.resize(sample_positions_.size());
  shape_column_into(sink, out);
}

void SparseObjective::shape_column_into(geom::Vec2 sink,
                                        std::span<double> out) const {
  const std::size_t n = sample_positions_.size();
  // Vectorized fast path over the SoA coordinate rows — ONE virtual call
  // per column, never per element, so the SIMD hot path is untouched by
  // the model polymorphism. Falls back to the scalar loop (which preserves
  // the legacy throw-on-non-finite behavior) when the backend declines:
  // no vector backend built, unrecognized geometry, or a non-finite
  // coordinate. Row scaling is a separate element-wise pass: same
  // per-element arithmetic as the legacy fused loop, bit for bit.
  const SiteRows rows{qx_.data(), qy_.data(), bx_.data(), by_.data()};
  if (!model_->site_shape_row(sink, rows, n, out.data())) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = model_->site_shape(
          sink, Site{sample_positions_[i], positions_b_[i]});
    }
  }
  if (!row_scale_.empty()) {
    numeric::simd::scale_rows(out.data(), row_scale_.data(), n);
  }
}

void SparseObjective::shape_columns(std::span<const geom::Vec2> sinks,
                                    ColumnBlock& out) const {
  out.resize(sample_positions_.size(), sinks.size());
  numeric::parallel_for(0, sinks.size(), [&](std::size_t c) {
    shape_column_into(sinks[c], out.column(c));
  });
}

StretchFit SparseObjective::fit(std::span<const geom::Vec2> sinks) const {
  // Scratch is thread-local: fit() runs inside parallel regions (smooth
  // localizer restarts, experiment trials) where shared mutable members
  // would race, while per-call vectors would re-pay the allocations this
  // reuse exists to remove.
  thread_local std::vector<std::vector<double>> cols;
  thread_local std::vector<std::span<const double>> spans;
  if (cols.size() < sinks.size()) {
    cols.resize(sinks.size());
  }
  spans.resize(sinks.size());
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    shape_column(sinks[j], cols[j]);
    spans[j] = cols[j];
  }
  return fit_columns(spans);
}

StretchFit SparseObjective::fit_columns(
    std::span<const std::span<const double>> columns) const {
  const std::size_t n = sample_positions_.size();
  const std::size_t k = columns.size();
  StretchFit out;
  if (k == 0) {
    out.residual = measured_norm_;
    return out;
  }
  if (n == 0) {
    // Every sample masked out: no evidence, zero residual, zero stretches.
    out.stretches.assign(k, 0.0);
    return out;
  }
  if (k == 1) {
    const std::span<const double> f = columns[0];
    const double s = numeric::nnls_single(f, measured_);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = s * f[i] - measured_[i];
      acc += d * d;
    }
    out.residual = std::sqrt(acc);
    out.stretches = {s};
    return out;
  }
  numeric::Matrix a(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<const double> col = columns[j];
    if (col.size() != n) {
      throw std::invalid_argument("fit_columns: column length mismatch");
    }
    for (std::size_t i = 0; i < n; ++i) {
      a(i, j) = col[i];
    }
  }
  numeric::NnlsResult r = numeric::nnls(a, measured_);
  out.residual = r.residual;
  out.stretches = std::move(r.x);
  return out;
}

std::vector<double> SparseObjective::residuals_at(
    std::span<const geom::Vec2> sinks,
    std::span<const double> stretches) const {
  std::vector<double> r;
  residuals_at(sinks, stretches, r);
  return r;
}

void SparseObjective::residuals_at(std::span<const geom::Vec2> sinks,
                                   std::span<const double> stretches,
                                   std::vector<double>& out) const {
  if (sinks.size() != stretches.size()) {
    throw std::invalid_argument("residuals_at: sinks/stretches mismatch");
  }
  const std::size_t n = sample_positions_.size();
  out.assign(n, 0.0);
  thread_local std::vector<double> col;
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    shape_column(sinks[j], col);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += stretches[j] * col[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] -= measured_[i];
  }
}

SparseObjective SparseObjective::reweighted(
    std::span<const double> weights) const {
  if (weights.size() != sample_positions_.size()) {
    throw std::invalid_argument("reweighted: weight count mismatch");
  }
  SparseObjective out(*this);
  if (out.row_scale_.empty()) {
    out.row_scale_.assign(weights.size(), 1.0);
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] >= 0.0)) {
      throw std::invalid_argument("reweighted: negative weight");
    }
    const double s = std::sqrt(weights[i]);
    out.row_scale_[i] *= s;
    out.measured_[i] = measured_[i] * s;
  }
  out.measured_norm_ = numeric::norm(out.measured_);
  return out;
}

void SparseObjective::reweighted_into(std::span<const double> weights,
                                      SparseObjective& out) const {
  if (weights.size() != sample_positions_.size()) {
    throw std::invalid_argument("reweighted: weight count mismatch");
  }
  // Copy-assignment reuses out's vector capacity, so a per-epoch IRLS
  // round allocates nothing once the buffers are warm.
  out = *this;
  if (out.row_scale_.empty()) {
    out.row_scale_.assign(weights.size(), 1.0);
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!(weights[i] >= 0.0)) {
      throw std::invalid_argument("reweighted: negative weight");
    }
    const double s = std::sqrt(weights[i]);
    out.row_scale_[i] *= s;
    out.measured_[i] = measured_[i] * s;
  }
  out.measured_norm_ = numeric::norm(out.measured_);
}

namespace {

/// Cholesky solve of the dense k x k system g x = c restricted to the
/// columns in idx[0..m); returns false if the submatrix is not
/// (numerically) SPD. On success writes the m support values to z.
bool solve_support(std::span<const double> g, std::size_t k,
                   std::span<const double> c, const std::size_t* idx,
                   std::size_t m, double* z) {
  double l[kMaxGramUsers * kMaxGramUsers];
  // Cholesky of the m x m submatrix.
  for (std::size_t j = 0; j < m; ++j) {
    double diag = g[idx[j] * k + idx[j]];
    for (std::size_t t = 0; t < j; ++t) {
      diag -= l[j * m + t] * l[j * m + t];
    }
    if (!(diag > 1e-14)) {
      return false;
    }
    l[j * m + j] = std::sqrt(diag);
    for (std::size_t i = j + 1; i < m; ++i) {
      double v = g[idx[i] * k + idx[j]];
      for (std::size_t t = 0; t < j; ++t) {
        v -= l[i * m + t] * l[j * m + t];
      }
      l[i * m + j] = v / l[j * m + j];
    }
  }
  double y[kMaxGramUsers];
  for (std::size_t i = 0; i < m; ++i) {
    double v = c[idx[i]];
    for (std::size_t t = 0; t < i; ++t) {
      v -= l[i * m + t] * y[t];
    }
    y[i] = v / l[i * m + i];
  }
  for (std::size_t ii = m; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t t = ii + 1; t < m; ++t) {
      v -= l[t * m + ii] * z[t];
    }
    z[ii] = v / l[ii * m + ii];
  }
  return true;
}

/// Subset solve used by the exhaustive enumeration: like solve_support but
/// additionally rejects solutions with a negative entry and reports the
/// full-size solution plus s^T c.
bool solve_subset(std::span<const double> g, std::size_t k,
                  std::span<const double> c, unsigned mask,
                  std::span<double> x, double& sc) {
  std::size_t idx[kMaxGramUsers];
  std::size_t m = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (mask & (1u << j)) {
      idx[m++] = j;
    }
  }
  double l[kMaxGramUsers * kMaxGramUsers];
  // Cholesky of the m x m submatrix.
  for (std::size_t j = 0; j < m; ++j) {
    double diag = g[idx[j] * k + idx[j]];
    for (std::size_t t = 0; t < j; ++t) {
      diag -= l[j * m + t] * l[j * m + t];
    }
    if (!(diag > 1e-14)) {
      return false;
    }
    l[j * m + j] = std::sqrt(diag);
    for (std::size_t i = j + 1; i < m; ++i) {
      double v = g[idx[i] * k + idx[j]];
      for (std::size_t t = 0; t < j; ++t) {
        v -= l[i * m + t] * l[j * m + t];
      }
      l[i * m + j] = v / l[j * m + j];
    }
  }
  double y[kMaxGramUsers];
  for (std::size_t i = 0; i < m; ++i) {
    double v = c[idx[i]];
    for (std::size_t t = 0; t < i; ++t) {
      v -= l[i * m + t] * y[t];
    }
    y[i] = v / l[i * m + i];
  }
  double z[kMaxGramUsers];
  for (std::size_t ii = m; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t t = ii + 1; t < m; ++t) {
      v -= l[t * m + ii] * z[t];
    }
    z[ii] = v / l[ii * m + ii];
    if (z[ii] < 0.0) {
      return false;
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    x[j] = 0.0;
  }
  sc = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    x[idx[j]] = z[j];
    sc += z[j] * c[idx[j]];
  }
  return true;
}

}  // namespace

namespace {

/// Lawson–Hanson active-set NNLS on the normal equations: minimizes
/// 0.5 s^T G s - c^T s over s >= 0. Used for k above the enumeration limit.
/// `s` must hold k entries.
void nnls_gram_active_set(std::span<const double> g, std::size_t k,
                          std::span<const double> c, double* s) {
  for (std::size_t j = 0; j < k; ++j) {
    s[j] = 0.0;
  }
  bool passive[kMaxGramUsers] = {};
  std::size_t idx[kMaxGramUsers];
  double z[kMaxGramUsers];
  double cnorm = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    cnorm = std::max(cnorm, std::abs(c[j]));
  }
  const double tol = 1e-10 * (1.0 + cnorm);
  const int max_iter = static_cast<int>(3 * k) + 10;

  for (int iter = 0; iter < max_iter; ++iter) {
    // Gradient of the residual objective: w = c - G s.
    double wmax = tol;
    std::size_t jmax = k;
    for (std::size_t j = 0; j < k; ++j) {
      if (passive[j]) {
        continue;
      }
      double w = c[j];
      for (std::size_t t = 0; t < k; ++t) {
        w -= g[j * k + t] * s[t];
      }
      if (w > wmax) {
        wmax = w;
        jmax = j;
      }
    }
    if (jmax == k) {
      return;  // KKT satisfied
    }
    passive[jmax] = true;

    for (int inner = 0; inner < max_iter; ++inner) {
      std::size_t m = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (passive[j]) {
          idx[m++] = j;
        }
      }
      if (m == 0) {
        break;
      }
      if (!solve_support(g, k, c, idx, m, z)) {
        passive[jmax] = false;  // near-singular: drop the newest column
        break;
      }
      bool feasible = true;
      double alpha = 1.0;
      for (std::size_t t = 0; t < m; ++t) {
        if (z[t] <= 0.0) {
          feasible = false;
          const double denom = s[idx[t]] - z[t];
          if (denom > 0.0) {
            alpha = std::min(alpha, s[idx[t]] / denom);
          }
        }
      }
      if (feasible) {
        for (std::size_t j = 0; j < k; ++j) {
          s[j] = 0.0;
        }
        for (std::size_t t = 0; t < m; ++t) {
          s[idx[t]] = z[t];
        }
        break;
      }
      for (std::size_t t = 0; t < m; ++t) {
        s[idx[t]] += alpha * (z[t] - s[idx[t]]);
        if (s[idx[t]] <= tol) {
          s[idx[t]] = 0.0;
          passive[idx[t]] = false;
        }
      }
    }
  }
}

/// Allocation-free core of nnls_from_gram: writes the k stretches to `s`
/// (stack buffer of the caller) and returns the residual. The public
/// wrapper and the per-candidate batch evaluator share this exact
/// arithmetic, which is what makes parallel batch output bit-identical to
/// serial StretchFit-returning calls.
double nnls_from_gram_into(std::span<const double> g, std::size_t k,
                           std::span<const double> c, double b2, double* s) {
  for (std::size_t j = 0; j < k; ++j) {
    s[j] = 0.0;
  }

  if (k > kGramEnumerationLimit) {
    nnls_gram_active_set(g, k, c, s);
    // residual^2 = b2 - 2 s^T c + s^T G s.
    double sc = 0.0;
    double sgs = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      sc += s[i] * c[i];
      double gi = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        gi += g[i * k + j] * s[j];
      }
      sgs += s[i] * gi;
    }
    return std::sqrt(std::max(b2 - 2.0 * sc + sgs, 0.0));
  }

  // Fast path: if the unconstrained optimum over all k columns is already
  // non-negative it *is* the NNLS optimum — one Cholesky instead of the
  // subset sweep. This covers the common well-separated-columns case.
  double best_r2 = b2;
  double x[kMaxGramUsers];
  const unsigned full = (1u << k) - 1;
  {
    double sc = 0.0;
    if (solve_subset(g, k, c, full, std::span<double>(x, k), sc)) {
      for (std::size_t j = 0; j < k; ++j) {
        s[j] = x[j];
      }
      return std::sqrt(std::max(b2 - sc, 0.0));
    }
  }
  // Empty support: s = 0, residual^2 = b2. For a subset solution solving
  // exactly on its support, residual^2 = b2 - s^T c.
  for (unsigned mask = 1; mask < full; ++mask) {
    double sc = 0.0;
    if (!solve_subset(g, k, c, mask, std::span<double>(x, k), sc)) {
      continue;
    }
    const double r2 = b2 - sc;
    if (r2 < best_r2) {
      best_r2 = r2;
      for (std::size_t j = 0; j < k; ++j) {
        s[j] = x[j];
      }
    }
  }
  return std::sqrt(std::max(best_r2, 0.0));
}

}  // namespace

StretchFit nnls_from_gram(std::span<const double> g, std::size_t k,
                          std::span<const double> c, double b2) {
  if (k == 0 || k > kMaxGramUsers || g.size() != k * k || c.size() != k) {
    throw std::invalid_argument("nnls_from_gram: bad dimensions");
  }
  StretchFit out;
  double s[kMaxGramUsers];
  out.residual = nnls_from_gram_into(g, k, c, b2, s);
  out.stretches.assign(s, s + k);
  return out;
}

ConditionalFit::ConditionalFit(
    const SparseObjective& obj,
    std::span<const std::span<const double>> fixed_columns,
    std::size_t vary_index)
    : obj_(&obj), fixed_count_(fixed_columns.size()), vary_index_(vary_index) {
  const std::size_t kf = fixed_count_;
  if (kf + 1 > kMaxGramUsers || vary_index > kf) {
    throw std::invalid_argument("ConditionalFit: bad dimensions");
  }
  const std::size_t n = obj.sample_count();
  for (std::size_t a = 0; a < kf; ++a) {
    if (fixed_columns[a].size() != n) {
      throw std::invalid_argument("ConditionalFit: column length mismatch");
    }
    fixed_[a] = fixed_columns[a];
  }
  const std::vector<double>& b = obj.measured();
  // Gram block of the fixed columns via the dot kernel: exact legacy
  // accumulation in the scalar backend; vector backends change only the
  // summation order (tolerance-tested).
  for (std::size_t a = 0; a < kf; ++a) {
    for (std::size_t bI = a; bI < kf; ++bI) {
      const double acc =
          numeric::simd::dot(fixed_[a].data(), fixed_[bI].data(), n);
      fixed_gram_[a * kf + bI] = acc;
      fixed_gram_[bI * kf + a] = acc;
    }
    fixed_c_[a] = numeric::simd::dot(fixed_[a].data(), b.data(), n);
  }
}

StretchFit ConditionalFit::evaluate(
    std::span<const double> candidate_column) const {
  const std::size_t k = fixed_count_ + 1;
  StretchFit out;
  double s[kMaxGramUsers];
  out.residual = evaluate_into(candidate_column, s);
  out.stretches.assign(s, s + k);
  return out;
}

double ConditionalFit::evaluate_residual(
    std::span<const double> candidate_column) const {
  double s[kMaxGramUsers];
  return evaluate_into(candidate_column, s);
}

void ConditionalFit::evaluate_batch(const ColumnBlock& block,
                                    std::span<double> residuals_out,
                                    std::span<double> vary_stretch_out) const {
  if (block.rows() != obj_->sample_count() ||
      residuals_out.size() != block.cols() ||
      (!vary_stretch_out.empty() &&
       vary_stretch_out.size() != block.cols())) {
    throw std::invalid_argument("evaluate_batch: dimension mismatch");
  }
  numeric::parallel_for(0, block.cols(), [&](std::size_t c) {
    double s[kMaxGramUsers];
    residuals_out[c] = evaluate_into(block.column(c), s);
    if (!vary_stretch_out.empty()) {
      vary_stretch_out[c] = s[vary_index_];
    }
  });
}

double ConditionalFit::evaluate_into(std::span<const double> candidate_column,
                                     double* stretches) const {
  const std::size_t kf = fixed_count_;
  const std::size_t k = kf + 1;
  const std::size_t n = obj_->sample_count();
  const std::vector<double>& b = obj_->measured();

  // Cross terms of the candidate with the fixed columns, itself, and b —
  // all through the dot kernels (the measured hot path of the sweep).
  double cross[kMaxGramUsers];
  for (std::size_t a = 0; a < kf; ++a) {
    cross[a] =
        numeric::simd::dot(fixed_[a].data(), candidate_column.data(), n);
  }
  double self = 0.0;
  double cb = 0.0;
  numeric::simd::dot_self_and_b(candidate_column.data(), b.data(), n, &self,
                                &cb);

  // Assemble the K x K Gram with the candidate inserted at vary_index_.
  // Slot mapping: output index vary_index_ -> candidate; fixed column a
  // keeps its relative order around it.
  double g[kMaxGramUsers * kMaxGramUsers];
  double c[kMaxGramUsers];
  auto slot_of_fixed = [&](std::size_t a) {
    return a < vary_index_ ? a : a + 1;
  };
  for (std::size_t a = 0; a < kf; ++a) {
    const std::size_t sa = slot_of_fixed(a);
    c[sa] = fixed_c_[a];
    for (std::size_t bI = 0; bI < kf; ++bI) {
      g[sa * k + slot_of_fixed(bI)] = fixed_gram_[a * kf + bI];
    }
    g[sa * k + vary_index_] = cross[a];
    g[vary_index_ * k + sa] = cross[a];
  }
  g[vary_index_ * k + vary_index_] = self;
  c[vary_index_] = cb;

  const double b2 = obj_->measured_norm() * obj_->measured_norm();
  return nnls_from_gram_into(std::span<const double>(g, k * k), k,
                             std::span<const double>(c, k), b2, stretches);
}

}  // namespace fluxfp::core
