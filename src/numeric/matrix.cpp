#include "numeric/matrix.hpp"

#include <cmath>

namespace fluxfp::numeric {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer rows");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix multiply: dimension mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += a * rhs(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
  if (cols_ != v.size()) {
    throw std::invalid_argument("Matrix*vector: dimension mismatch");
  }
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += (*this)(r, c) * v[c];
    }
    out[r] = acc;
  }
  return out;
}

double norm(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) {
    acc += x * x;
  }
  return std::sqrt(acc);
}

std::vector<double> subtract(const std::vector<double>& a,
                             const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("subtract: size mismatch");
  }
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

}  // namespace fluxfp::numeric
