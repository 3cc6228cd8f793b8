#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace fluxfp::numeric {

/// A dense row-major matrix of doubles. Small and boring on purpose: the
/// NLS/NNLS subproblems in this library are n x K with K <= ~8, so clarity
/// beats blocking/vectorization tricks.
class Matrix {
 public:
  Matrix() = default;
  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Builds from nested initializer data; throws std::invalid_argument on
  /// ragged rows.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product; throws std::invalid_argument on size mismatch.
  std::vector<double> operator*(const std::vector<double>& v) const;

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
double norm(const std::vector<double>& v);
/// a - b, element-wise; throws std::invalid_argument on size mismatch.
std::vector<double> subtract(const std::vector<double>& a,
                             const std::vector<double>& b);

}  // namespace fluxfp::numeric
