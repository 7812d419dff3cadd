// Tests for soft thresholding, including the defining variational property
// prox(w) = argmin (1/2t)||x-w||^2 + lambda ||x||_1 checked numerically.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "la/vector.hpp"
#include "prox/operators.hpp"

namespace rcf::prox {
namespace {

TEST(SoftThreshold, ScalarCases) {
  EXPECT_DOUBLE_EQ(soft_threshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(2.0, 0.0), 2.0);
}

TEST(SoftThreshold, VectorForm) {
  la::Vector in{2.0, -0.1, -3.0}, out(3);
  soft_threshold(in.span(), 1.0, out.span());
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], -2.0);
}

/// Numerically verifies that soft thresholding solves the prox problem of
/// Eq. 6 for g(w) = lambda ||w||_1: for p = S_{lambda t}(w),
/// (1/2t)||p - w||^2 + lambda ||p||_1 must not exceed the objective at
/// nearby perturbations.
TEST(L1, ProxOptimality) {
  const double lambda = 0.3;
  const double t = 0.7;
  const la::Vector w{1.0, -0.2, 2.0, 0.05};
  la::Vector p(w.size());
  soft_threshold(w.span(), lambda * t, p.span());
  auto objective = [&](const la::Vector& x) {
    double q = 0.0;
    double l1 = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      q += (x[i] - w[i]) * (x[i] - w[i]);
      l1 += std::abs(x[i]);
    }
    return q / (2.0 * t) + lambda * l1;
  };
  const double at_p = objective(p);
  Rng rng(17, 0);
  for (int trial = 0; trial < 200; ++trial) {
    la::Vector q = p;
    for (auto& v : q) {
      v += 0.05 * rng.normal();
    }
    EXPECT_GE(objective(q), at_p - 1e-9);
  }
}

}  // namespace
}  // namespace rcf::prox
