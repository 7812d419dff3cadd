// Tests for the power-iteration eigensolver.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "la/vector.hpp"

namespace rcf::la {
namespace {

TEST(PowerIteration, DiagonalMatrix) {
  Matrix a(4, 4);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  a(3, 3) = 0.5;
  const auto result = power_iteration(a, 500, 1e-10);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalue, 5.0, 1e-6);
}

TEST(PowerIteration, GramMatrixAgainstKnownSpectrum) {
  // A = u u^T has eigenvalue ||u||^2.
  Vector u{1.0, 2.0, 2.0};
  Matrix a(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      a(i, j) = u[i] * u[j];
    }
  }
  const auto result = power_iteration(a, 200, 1e-12);
  EXPECT_NEAR(result.eigenvalue, 9.0, 1e-8);
}

TEST(PowerIteration, OperatorForm) {
  // Operator that scales by 2.5 in every direction.
  const auto result = power_iteration(
      [](std::span<const double> x, std::span<double> y) {
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = 2.5 * x[i];
        }
      },
      10, 100, 1e-12);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalue, 2.5, 1e-9);
}

TEST(PowerIteration, ZeroOperator) {
  const auto result = power_iteration(
      [](std::span<const double>, std::span<double> y) {
        std::fill(y.begin(), y.end(), 0.0);
      },
      5, 50, 1e-10);
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.eigenvalue, 0.0);
}

TEST(PowerIteration, DeterministicAcrossRuns) {
  Matrix a(6, 6);
  Rng rng(3, 0);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i; j < 6; ++j) {
      a(i, j) = a(j, i) = rng.normal();
    }
  }
  // Make it PSD-ish by squaring: B = A A^T.
  Matrix b(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      for (std::size_t p = 0; p < 6; ++p) {
        b(i, j) += a(i, p) * a(j, p);
      }
    }
  }
  const auto r1 = power_iteration(b, 300, 1e-10, /*seed=*/77);
  const auto r2 = power_iteration(b, 300, 1e-10, /*seed=*/77);
  EXPECT_EQ(r1.eigenvalue, r2.eigenvalue);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

TEST(PowerIteration, RequiresSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(power_iteration(a), InvalidArgument);
}

}  // namespace
}  // namespace rcf::la
