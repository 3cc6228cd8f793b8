// Cross-cutting property suites for the numeric toolbox.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "numeric/hungarian.hpp"
#include "numeric/linalg.hpp"
#include "numeric/nnls.hpp"
#include "numeric/stats.hpp"

namespace fluxfp::numeric {
namespace {

class NumericProperty : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937_64 rng{static_cast<unsigned long>(GetParam())};
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::uniform_real_distribution<double> sym{-1.0, 1.0};
};

TEST_P(NumericProperty, NnlsIsScaleEquivariant) {
  // Scaling b by c > 0 scales the NNLS solution and residual by c.
  const std::size_t n = 10, k = 3;
  Matrix a(n, k);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = sym(rng);
    }
    b[r] = sym(rng);
  }
  const double scale = 0.5 + 4.0 * unit(rng);
  std::vector<double> b_scaled(n);
  for (std::size_t r = 0; r < n; ++r) {
    b_scaled[r] = scale * b[r];
  }
  const NnlsResult base = nnls(a, b);
  const NnlsResult scaled = nnls(a, b_scaled);
  EXPECT_NEAR(scaled.residual, scale * base.residual, 1e-6);
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_NEAR(scaled.x[c], scale * base.x[c], 1e-5);
  }
}

TEST_P(NumericProperty, NnlsResidualNeverWorseThanZeroSolution) {
  const std::size_t n = 8, k = 4;
  Matrix a(n, k);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = sym(rng);
    }
    b[r] = sym(rng);
  }
  const NnlsResult res = nnls(a, b);
  EXPECT_LE(res.residual, norm(b) + 1e-12);
}

TEST_P(NumericProperty, QrMatchesNormalEquations) {
  // For well-conditioned overdetermined systems, QR least squares and the
  // normal-equations Cholesky solution agree.
  const std::size_t n = 12, k = 3;
  Matrix a(n, k);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      a(r, c) = sym(rng);
    }
    b[r] = sym(rng);
  }
  const auto qr = qr_least_squares(a, b);
  ASSERT_TRUE(qr.has_value());
  const Matrix at = a.transposed();
  Matrix ata = at * a;
  for (std::size_t i = 0; i < k; ++i) {
    ata(i, i) += 1e-12;  // guard against a freak singular draw
  }
  const auto ne = cholesky_solve(ata, at * b);
  ASSERT_TRUE(ne.has_value());
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_NEAR((*qr)[c], (*ne)[c], 1e-6);
  }
}

TEST_P(NumericProperty, HungarianInvariantUnderColumnPermutation) {
  const std::size_t n = 5;
  Matrix cost(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      cost(r, c) = unit(rng);
    }
  }
  const double base =
      assignment_cost(cost, hungarian_assign(cost));
  // Permute columns: the optimal total cost is unchanged.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  std::shuffle(perm.begin(), perm.end(), rng);
  Matrix shuffled(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      shuffled(r, c) = cost(r, perm[c]);
    }
  }
  const double permuted =
      assignment_cost(shuffled, hungarian_assign(shuffled));
  EXPECT_NEAR(base, permuted, 1e-9);
}

TEST_P(NumericProperty, PercentileBounds) {
  std::vector<double> xs;
  for (int i = 0; i < 30; ++i) {
    xs.push_back(sym(rng) * 5.0);
  }
  const double lo = *std::min_element(xs.begin(), xs.end());
  const double hi = max_value(xs);
  for (double p : {0.0, 0.3, 0.6, 1.0}) {
    const double v = percentile(xs, p);
    EXPECT_GE(v, lo - 1e-12);
    EXPECT_LE(v, hi + 1e-12);
  }
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), lo);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), hi);
}

TEST_P(NumericProperty, PercentileOfTiesIsTheTie) {
  // Interpolating between two equal order statistics must return them
  // exactly: a p99 one ulp below the p50 of equal samples is a bug.
  const double tie = GetParam() == 0 ? 236.441 : sym(rng) * 500.0;
  const std::vector<double> xs(13, tie);
  for (int k = 0; k <= 100; ++k) {
    const double p = static_cast<double>(k) / 100.0;
    EXPECT_EQ(percentile(xs, p), tie) << "p " << p;
  }
}

TEST_P(NumericProperty, PercentileIsNonDecreasingInP) {
  std::vector<double> xs;
  for (int i = 0; i < 25; ++i) {
    xs.push_back(sym(rng) * 500.0);
  }
  xs.push_back(xs[3]);  // a tie inside the sample
  double prev = percentile(xs, 0.0);
  for (int k = 1; k <= 100; ++k) {
    const double p = static_cast<double>(k) / 100.0;
    const double v = percentile(xs, p);
    EXPECT_GE(v, prev) << "p " << p;
    prev = v;
  }
}

TEST_P(NumericProperty, CholeskyReconstruction) {
  // Solve then verify A x == b.
  const std::size_t n = 5;
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = sym(rng);
    }
  }
  Matrix a = m.transposed() * m;
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += 1.0;
  }
  std::vector<double> b(n);
  for (auto& v : b) {
    v = sym(rng);
  }
  const auto x = cholesky_solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(norm(subtract(a * *x, b)), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace fluxfp::numeric
