#include "numeric/matrix.hpp"

#include <gtest/gtest.h>

namespace fluxfp::numeric {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  const Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, ConstructionAndFill) {
  const Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, InitializerListRejectsRagged) {
  EXPECT_THROW(Matrix({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_EQ(c, Matrix({{19, 22}, {43, 50}}));
}

TEST(Matrix, MultiplyByIdentity) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix identity{{1, 0}, {0, 1}};
  EXPECT_EQ(a * identity, a);
  EXPECT_EQ(identity * a, a);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  EXPECT_THROW(Matrix(2, 3) * Matrix(2, 3), std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{1, 1};
  const std::vector<double> out = a * v;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
  const std::vector<double> wrong{1, 2, 3};
  EXPECT_THROW(a * wrong, std::invalid_argument);
}

TEST(VectorOps, Norm) {
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm({}), 0.0);
}

TEST(VectorOps, Subtract) {
  const std::vector<double> d = subtract({5, 7}, {2, 3});
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 4.0);
  EXPECT_THROW(subtract({1}, {1, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace fluxfp::numeric
