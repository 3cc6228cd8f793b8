#pragma once

#include <optional>
#include <vector>

#include "numeric/matrix.hpp"

namespace fluxfp::numeric {

/// Solves A x = b for symmetric positive-definite A via Cholesky
/// factorization. Returns std::nullopt if A is not (numerically) SPD or on
/// dimension mismatch.
std::optional<std::vector<double>> cholesky_solve(const Matrix& a,
                                                  const std::vector<double>& b);

/// Least-squares solution of min ||A x - b||_2 for full-column-rank A
/// (rows >= cols) via Householder QR. Returns std::nullopt on rank
/// deficiency or dimension mismatch.
std::optional<std::vector<double>> qr_least_squares(
    const Matrix& a, const std::vector<double>& b);

}  // namespace fluxfp::numeric
