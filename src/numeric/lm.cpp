#include "numeric/lm.hpp"

#include <cmath>

#include "numeric/linalg.hpp"
#include "numeric/matrix.hpp"

namespace fluxfp::numeric {
namespace {

Matrix numeric_jacobian(const ResidualFn& fn, const std::vector<double>& p,
                        const std::vector<double>& r0, double eps) {
  Matrix j(r0.size(), p.size());
  std::vector<double> pp = p;
  for (std::size_t c = 0; c < p.size(); ++c) {
    const double h = eps * std::max(1.0, std::abs(p[c]));
    pp[c] = p[c] + h;
    const std::vector<double> r1 = fn(pp);
    pp[c] = p[c];
    for (std::size_t rI = 0; rI < r0.size(); ++rI) {
      j(rI, c) = (r1[rI] - r0[rI]) / h;
    }
  }
  return j;
}

double half_sq_norm(const std::vector<double>& r) {
  double acc = 0.0;
  for (double v : r) {
    acc += v * v;
  }
  return 0.5 * acc;
}

}  // namespace

LmResult levenberg_marquardt(const ResidualFn& fn, std::vector<double> initial,
                             const LmOptions& opts) {
  LmResult out;
  out.params = std::move(initial);
  std::vector<double> r = fn(out.params);
  out.cost = half_sq_norm(r);
  double lambda = opts.initial_lambda;

  for (out.iterations = 0; out.iterations < opts.max_iter; ++out.iterations) {
    const Matrix j = numeric_jacobian(fn, out.params, r, opts.jacobian_eps);
    const Matrix jt = j.transposed();
    const Matrix jtj = jt * j;
    const std::vector<double> g = jt * r;  // gradient of 0.5||r||^2

    double gmax = 0.0;
    for (double v : g) {
      gmax = std::max(gmax, std::abs(v));
    }
    if (gmax < opts.gradient_tol) {
      out.converged = true;
      break;
    }

    bool stepped = false;
    for (int tries = 0; tries < 20 && !stepped; ++tries) {
      Matrix damped = jtj;
      for (std::size_t i = 0; i < damped.rows(); ++i) {
        damped(i, i) += lambda * std::max(jtj(i, i), 1e-12);
      }
      std::vector<double> neg_g(g.size());
      for (std::size_t i = 0; i < g.size(); ++i) {
        neg_g[i] = -g[i];
      }
      const auto step = cholesky_solve(damped, neg_g);
      if (!step) {
        lambda *= opts.lambda_up;
        continue;
      }
      std::vector<double> trial = out.params;
      double step_norm = 0.0;
      for (std::size_t i = 0; i < trial.size(); ++i) {
        trial[i] += (*step)[i];
        step_norm += (*step)[i] * (*step)[i];
      }
      step_norm = std::sqrt(step_norm);
      const std::vector<double> r_trial = fn(trial);
      const double cost_trial = half_sq_norm(r_trial);
      if (cost_trial < out.cost) {
        out.params = std::move(trial);
        r = r_trial;
        out.cost = cost_trial;
        lambda = std::max(lambda * opts.lambda_down, 1e-12);
        stepped = true;
        if (step_norm < opts.step_tol) {
          out.converged = true;
          return out;
        }
      } else {
        lambda *= opts.lambda_up;
      }
    }
    if (!stepped) {
      break;  // stuck: every damped step increased the cost
    }
  }
  return out;
}

}  // namespace fluxfp::numeric
