#include "numeric/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/linalg.hpp"

namespace fluxfp::numeric {
namespace {

/// Unconstrained least squares restricted to the columns in `passive`
/// (true = included). Returns full-size vector with zeros elsewhere, or an
/// empty vector on failure.
std::vector<double> solve_subproblem(const Matrix& a,
                                     const std::vector<double>& b,
                                     const std::vector<bool>& passive) {
  const std::size_t n = a.cols();
  std::vector<std::size_t> idx;
  for (std::size_t j = 0; j < n; ++j) {
    if (passive[j]) {
      idx.push_back(j);
    }
  }
  if (idx.empty()) {
    return std::vector<double>(n, 0.0);
  }
  Matrix sub(a.rows(), idx.size());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < idx.size(); ++c) {
      sub(r, c) = a(r, idx[c]);
    }
  }
  const auto z = qr_least_squares(sub, b);
  if (!z) {
    return {};
  }
  std::vector<double> full(n, 0.0);
  for (std::size_t c = 0; c < idx.size(); ++c) {
    full[idx[c]] = (*z)[c];
  }
  return full;
}

}  // namespace

NnlsResult nnls(const Matrix& a, const std::vector<double>& b, int max_iter) {
  NnlsResult out;
  const std::size_t n = a.cols();
  if (a.rows() != b.size() || n == 0) {
    return out;
  }
  if (n == 1) {
    std::vector<double> col(a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      col[r] = a(r, 0);
    }
    const double s = nnls_single(col, b);
    out.x = {s};
    for (double& c : col) c *= s;
    out.residual = norm(subtract(col, b));
    out.converged = true;
    return out;
  }

  std::vector<bool> passive(n, false);
  std::vector<double> x(n, 0.0);
  const double tol = 1e-10 * (1.0 + norm(b));

  for (int iter = 0; iter < max_iter; ++iter) {
    // Gradient of 0.5||Ax-b||^2 is A^T (Ax - b); w = -gradient.
    const std::vector<double> res = subtract(b, a * x);
    std::vector<double> w(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) {
        acc += a(r, j) * res[r];
      }
      w[j] = acc;
    }
    // Most-violated KKT multiplier among active (zero) variables.
    double wmax = tol;
    std::size_t jmax = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (!passive[j] && w[j] > wmax) {
        wmax = w[j];
        jmax = j;
      }
    }
    if (jmax == n) {
      out.converged = true;  // KKT satisfied
      break;
    }
    passive[jmax] = true;

    // Inner loop: solve on the passive set; walk back if any passive
    // variable would go negative.
    for (int inner = 0; inner < max_iter; ++inner) {
      std::vector<double> z = solve_subproblem(a, b, passive);
      if (z.empty()) {
        // Numerically rank-deficient subproblem: drop the newest column.
        passive[jmax] = false;
        break;
      }
      double alpha = 1.0;
      bool feasible = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (passive[j] && z[j] <= 0.0) {
          feasible = false;
          const double denom = x[j] - z[j];
          if (denom > 0.0) {
            alpha = std::min(alpha, x[j] / denom);
          }
        }
      }
      if (feasible) {
        x = std::move(z);
        break;
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (passive[j]) {
          x[j] += alpha * (z[j] - x[j]);
          if (x[j] <= tol) {
            x[j] = 0.0;
            passive[j] = false;
          }
        }
      }
    }
  }

  out.x = x;
  out.residual = norm(subtract(a * x, b));
  return out;
}

double nnls_single(std::span<const double> f, std::span<const double> b) {
  // Serial accumulation in index order.
  double ff = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    ff += f[i] * f[i];
  }
  if (ff <= 0.0) {
    return 0.0;
  }
  double fb = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    fb += f[i] * b[i];
  }
  return std::max(0.0, fb / ff);
}

}  // namespace fluxfp::numeric
