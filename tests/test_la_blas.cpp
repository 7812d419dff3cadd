// Tests for the dense BLAS substitute: levels 1-2, shape checking, and
// reference-value cross-checks.
#include <gtest/gtest.h>

#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "la/vector.hpp"

namespace rcf::la {
namespace {

TEST(Blas1, Axpy) {
  Vector x{1.0, 2.0, 3.0};
  Vector y{10.0, 20.0, 30.0};
  axpy(2.0, x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(Blas1, Waxpby) {
  Vector x{1.0, 2.0}, y{3.0, 4.0}, w(2);
  waxpby(2.0, x.span(), -1.0, y.span(), w.span());
  EXPECT_DOUBLE_EQ(w[0], -1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(Blas1, DotNrm2Asum) {
  Vector x{3.0, -4.0};
  EXPECT_DOUBLE_EQ(dot(x.span(), x.span()), 25.0);
  EXPECT_DOUBLE_EQ(nrm2(x.span()), 5.0);
  EXPECT_DOUBLE_EQ(asum(x.span()), 7.0);
  EXPECT_DOUBLE_EQ(amax(x.span()), 4.0);
}

TEST(Blas1, ScalCopyZero) {
  Vector x{1.0, -2.0};
  scal(-2.0, x.span());
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
  Vector y(2);
  copy(x.span(), y.span());
  EXPECT_EQ(x, y);
  set_zero(y.span());
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(Blas1, MaxAbsDiff) {
  Vector a{1.0, 2.0}, b{1.5, 1.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a.span(), b.span()), 1.0);
}

TEST(Blas1, SizeMismatchThrows) {
  Vector a(3), b(4);
  EXPECT_THROW(axpy(1.0, a.span(), b.span()), DimensionMismatch);
  EXPECT_THROW((void)dot(a.span(), b.span()), DimensionMismatch);
  EXPECT_THROW(copy(a.span(), b.span()), DimensionMismatch);
}

TEST(Blas2, GemvKnownValues) {
  Matrix a(2, 3);
  // [1 2 3; 4 5 6]
  for (std::size_t i = 0; i < 6; ++i) {
    a(i / 3, i % 3) = static_cast<double>(i + 1);
  }
  Vector x{1.0, 1.0, 1.0}, y(2, 1.0);
  gemv(1.0, a, x.span(), 2.0, y.span());
  EXPECT_DOUBLE_EQ(y[0], 8.0);   // 6 + 2
  EXPECT_DOUBLE_EQ(y[1], 17.0);  // 15 + 2
}

TEST(Blas2, GemvShapeChecks) {
  Matrix a(2, 3);
  Vector x(2), y(2);
  EXPECT_THROW(gemv(1.0, a, x.span(), 0.0, y.span()), DimensionMismatch);
}

TEST(Matrix, RowViewsAreContiguous) {
  Matrix a(3, 4);
  a(1, 2) = 5.0;
  auto row = a.row(1);
  EXPECT_DOUBLE_EQ(row[2], 5.0);
  row[3] = 7.0;
  EXPECT_DOUBLE_EQ(a(1, 3), 7.0);
}

TEST(Matrix, SymmetrizeFromUpper) {
  Matrix c(3, 3);
  c(0, 1) = 2.0;
  c(0, 2) = 3.0;
  c(1, 2) = 4.0;
  symmetrize_from_upper(c);
  EXPECT_DOUBLE_EQ(c(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(c(2, 1), 4.0);
}

TEST(Matrix, MaxAbsDiffShapeChecks) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW((void)Matrix::max_abs_diff(a, b), DimensionMismatch);
}

}  // namespace
}  // namespace rcf::la
