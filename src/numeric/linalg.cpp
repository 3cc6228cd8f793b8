#include "numeric/linalg.hpp"

#include <cmath>

namespace fluxfp::numeric {

std::optional<std::vector<double>> cholesky_solve(
    const Matrix& a, const std::vector<double>& b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return std::nullopt;
  }
  // L lower-triangular with A = L L^T.
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      diag -= l(j, k) * l(j, k);
    }
    if (!(diag > 0.0)) {
      return std::nullopt;  // not SPD (or NaN)
    }
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        v -= l(i, k) * l(j, k);
      }
      l(i, j) = v / l(j, j);
    }
  }
  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) {
      v -= l(i, k) * y[k];
    }
    y[i] = v / l(i, i);
  }
  // Back substitution L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) {
      v -= l(k, ii) * x[k];
    }
    x[ii] = v / l(ii, ii);
  }
  return x;
}

std::optional<std::vector<double>> qr_least_squares(
    const Matrix& a, const std::vector<double>& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n || b.size() != m || n == 0) {
    return std::nullopt;
  }
  Matrix r = a;              // reduced in place to R (upper trapezoid)
  std::vector<double> qtb = b;  // accumulates Q^T b

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      alpha += r(i, k) * r(i, k);
    }
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) {
      return std::nullopt;  // rank deficient
    }
    if (r(k, k) > 0.0) {
      alpha = -alpha;
    }
    std::vector<double> v(m - k);
    v[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) {
      v[i - k] = r(i, k);
    }
    double vnorm2 = 0.0;
    for (double t : v) {
      vnorm2 += t * t;
    }
    if (vnorm2 == 0.0) {
      continue;  // column already reduced
    }
    // Apply H = I - 2 v v^T / (v^T v) to remaining columns and to qtb.
    for (std::size_t c = k; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) {
        proj += v[i - k] * r(i, c);
      }
      proj = 2.0 * proj / vnorm2;
      for (std::size_t i = k; i < m; ++i) {
        r(i, c) -= proj * v[i - k];
      }
    }
    double proj = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      proj += v[i - k] * qtb[i];
    }
    proj = 2.0 * proj / vnorm2;
    for (std::size_t i = k; i < m; ++i) {
      qtb[i] -= proj * v[i - k];
    }
  }

  // Back substitution on the n x n upper triangle.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = qtb[ii];
    for (std::size_t c = ii + 1; c < n; ++c) {
      v -= r(ii, c) * x[c];
    }
    const double diag = r(ii, ii);
    if (std::abs(diag) < 1e-14) {
      return std::nullopt;
    }
    x[ii] = v / diag;
  }
  return x;
}

}  // namespace fluxfp::numeric
