#pragma once

#include <functional>
#include <vector>

namespace fluxfp::numeric {

/// A vector-valued residual function r(theta): params -> residuals.
/// Levenberg–Marquardt minimizes 0.5 * ||r(theta)||^2.
using ResidualFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

/// Options for Levenberg–Marquardt.
struct LmOptions {
  int max_iter = 100;
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.3;
  double gradient_tol = 1e-10;  ///< stop when ||J^T r||_inf below this
  double step_tol = 1e-12;      ///< stop when the step norm is below this
  double jacobian_eps = 1e-6;   ///< forward-difference step for the Jacobian
};

/// Result of an LM run.
struct LmResult {
  std::vector<double> params;
  double cost = 0.0;  ///< 0.5 * ||r||^2 at the solution
  int iterations = 0;
  bool converged = false;
};

/// Levenberg–Marquardt with forward-difference Jacobian (Madsen, Nielsen &
/// Tingleff, "Methods for Non-linear Least Squares Problems" — the method
/// the paper cites as inapplicable to non-differentiable rectangular-field
/// objectives; we provide it both as a comparator and for smooth problems).
LmResult levenberg_marquardt(const ResidualFn& fn,
                             std::vector<double> initial,
                             const LmOptions& opts = {});

}  // namespace fluxfp::numeric
