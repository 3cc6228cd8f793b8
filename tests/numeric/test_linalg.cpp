#include "numeric/linalg.hpp"

#include <gtest/gtest.h>

#include <random>

namespace fluxfp::numeric {
namespace {

TEST(CholeskySolve, Solves2x2) {
  const Matrix a{{4, 2}, {2, 3}};
  const auto x = cholesky_solve(a, {10, 8});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.75, 1e-12);
  EXPECT_NEAR((*x)[1], 1.5, 1e-12);
}

TEST(CholeskySolve, SolvesIdentity) {
  const Matrix identity{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const auto x = cholesky_solve(identity, {1, 2, 3});
  ASSERT_TRUE(x.has_value());
  EXPECT_DOUBLE_EQ((*x)[1], 2.0);
}

TEST(CholeskySolve, RejectsNonSpd) {
  EXPECT_FALSE(cholesky_solve(Matrix{{0, 0}, {0, 0}}, {1, 1}).has_value());
  EXPECT_FALSE(cholesky_solve(Matrix{{1, 2}, {2, 1}}, {1, 1}).has_value());
}

TEST(CholeskySolve, RejectsDimensionMismatch) {
  EXPECT_FALSE(cholesky_solve(Matrix(2, 3), {1, 1}).has_value());
  EXPECT_FALSE(
      cholesky_solve(Matrix{{1, 0}, {0, 1}}, {1, 2, 3}).has_value());
}

TEST(QrLeastSquares, ExactSquareSystem) {
  const Matrix a{{2, 0}, {0, 3}};
  const auto x = qr_least_squares(a, {4, 9});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(QrLeastSquares, OverdeterminedRegression) {
  // Fit y = 2x + 1 over noiseless points: exact recovery.
  Matrix a(4, 2);
  std::vector<double> b(4);
  for (int i = 0; i < 4; ++i) {
    a(i, 0) = i;
    a(i, 1) = 1.0;
    b[static_cast<std::size_t>(i)] = 2.0 * i + 1.0;
  }
  const auto x = qr_least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 2.0, 1e-10);
  EXPECT_NEAR((*x)[1], 1.0, 1e-10);
}

TEST(QrLeastSquares, ResidualOrthogonalToColumns) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix a(8, 3);
  std::vector<double> b(8);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = u(rng);
    }
    b[r] = u(rng);
  }
  const auto x = qr_least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  const std::vector<double> res = subtract(a * *x, b);
  for (std::size_t c = 0; c < 3; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < 8; ++r) {
      acc += a(r, c) * res[r];
    }
    EXPECT_NEAR(acc, 0.0, 1e-9) << "column " << c;
  }
}

TEST(QrLeastSquares, RejectsRankDeficient) {
  Matrix a(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    a(r, 0) = 1.0;
    a(r, 1) = 2.0;  // second column is a multiple of the first
  }
  EXPECT_FALSE(qr_least_squares(a, {1, 1, 1}).has_value());
}

TEST(QrLeastSquares, RejectsUnderdetermined) {
  EXPECT_FALSE(qr_least_squares(Matrix(2, 3), {1, 1}).has_value());
}

// Property: for random SPD systems, Cholesky and QR agree.
class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, CholeskyMatchesQr) {
  std::mt19937_64 rng(static_cast<unsigned long>(GetParam()));
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t n = 4;
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = u(rng);
    }
  }
  // SPD via M^T M + I.
  Matrix a = m.transposed() * m;
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += 1.0;
  }
  std::vector<double> b(n);
  for (auto& v : b) {
    v = u(rng);
  }
  const auto xc = cholesky_solve(a, b);
  const auto xq = qr_least_squares(a, b);
  ASSERT_TRUE(xc.has_value());
  ASSERT_TRUE(xq.has_value());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR((*xc)[i], (*xq)[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement, ::testing::Range(0, 25));

}  // namespace
}  // namespace fluxfp::numeric
