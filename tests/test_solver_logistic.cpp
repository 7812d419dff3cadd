// Tests for the logistic-regression extension (general ERM per paper §2.1).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/logistic.hpp"
#include "data/synthetic.hpp"
#include "la/blas.hpp"
#include "obs/trace.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {
namespace {

data::Dataset test_dataset(std::size_t m = 1200, std::size_t d = 24) {
  data::SyntheticOptions opts;
  opts.num_samples = m;
  opts.num_features = d;
  opts.density = 0.5;
  opts.binary_labels = true;
  opts.noise_stddev = 0.3;
  opts.seed = 23;
  return data::make_regression(opts);
}

class LogisticTest : public ::testing::Test {
 protected:
  LogisticTest() : dataset_(test_dataset()), problem_(dataset_, 0.002) {}

  data::Dataset dataset_;
  LogisticProblem problem_;
};

TEST_F(LogisticTest, RejectsNonBinaryLabels) {
  data::SyntheticOptions opts;
  opts.num_samples = 10;
  opts.num_features = 4;
  opts.binary_labels = false;  // continuous labels
  const auto bad = data::make_regression(opts);
  EXPECT_THROW(LogisticProblem(bad, 0.1), InvalidArgument);
}

TEST_F(LogisticTest, ObjectiveAtZeroIsLogTwo) {
  la::Vector zero(24);
  EXPECT_NEAR(problem_.smooth_value(zero.span()), std::log(2.0), 1e-12);
}

TEST_F(LogisticTest, GradientMatchesFiniteDifferences) {
  la::Vector w(24);
  Rng rng(5, 0);
  for (auto& v : w) v = 0.1 * rng.normal();
  la::Vector grad(24);
  problem_.gradient(w.span(), grad.span());
  const double h = 1e-6;
  for (std::size_t j : {0ul, 11ul, 23ul}) {
    la::Vector wp = w, wm = w;
    wp[j] += h;
    wm[j] -= h;
    const double fd =
        (problem_.smooth_value(wp.span()) - problem_.smooth_value(wm.span())) /
        (2.0 * h);
    EXPECT_NEAR(grad[j], fd, 1e-6);
  }
}

TEST_F(LogisticTest, HessianWeightsAreCurvatures) {
  la::Vector w(24);
  la::Vector grad(24), weights(1200);
  problem_.gradient(w.span(), grad.span(), weights.span());
  // At w = 0, sigma = 1/2 so every weight is 1/4.
  for (std::size_t i = 0; i < 1200; ++i) {
    EXPECT_NEAR(weights[i], 0.25, 1e-12);
  }
}

TEST_F(LogisticTest, WeightedGramMatchesUnweightedAtConstantWeights) {
  la::Vector w(24);
  la::Vector grad(24), weights(1200);
  problem_.gradient(w.span(), grad.span(), weights.span());
  Rng rng(6, 1);
  const auto idx = rng.sample_without_replacement(1200, 100);
  la::Matrix hw(24, 24), h(24, 24);
  la::Vector rw(24), r(24);
  sparse::accumulate_sampled_gram(dataset_.xt, dataset_.y.span(), idx,
                                  1.0 / 100.0, hw, rw.span(), weights.span());
  la::symmetrize_from_upper(hw);
  sparse::sampled_gram(dataset_.xt, dataset_.y.span(), idx, h, r.span());
  // weights == 1/4 everywhere => weighted Gram == Gram / 4.
  la::scal(0.25, h.flat());
  EXPECT_LT(la::Matrix::max_abs_diff(hw, h), 1e-14);
}

TEST_F(LogisticTest, LipschitzBoundsCurvature) {
  // L = lambda_max((1/4m) X X^T) must dominate the curvature along random
  // directions at any w (D_ii <= 1/4).
  Rng rng(7, 0);
  la::Vector w(24), grad(24), weights(1200);
  for (auto& v : w) v = rng.normal();
  problem_.gradient(w.span(), grad.span(), weights.span());
  for (double wt : weights) {
    EXPECT_LE(wt, 0.25 + 1e-15);
    EXPECT_GE(wt, 0.0);
  }
  EXPECT_GT(problem_.lipschitz(), 0.0);
}

TEST_F(LogisticTest, FistaBaselineConverges) {
  const auto result = solve_logistic_fista(problem_, 20000, 1e-13);
  EXPECT_TRUE(result.converged);
  // Optimality: |grad_j| <= lambda off-support; grad_j = -lambda sign(w_j)
  // on support.
  la::Vector grad(24);
  problem_.gradient(result.w.span(), grad.span());
  for (std::size_t j = 0; j < 24; ++j) {
    if (result.w[j] != 0.0) {
      EXPECT_NEAR(grad[j] + 0.002 * (result.w[j] > 0 ? 1.0 : -1.0), 0.0, 1e-5);
    } else {
      EXPECT_LE(std::abs(grad[j]), 0.002 + 1e-5);
    }
  }
}

TEST_F(LogisticTest, ProxNewtonConvergesWithBothInnerSolvers) {
  const auto ref = solve_logistic_fista(problem_);
  for (auto inner : {PnInnerSolver::kFista, PnInnerSolver::kRcSfista}) {
    PnOptions opts;
    opts.max_outer = 30;
    opts.inner_iters = 60;
    opts.hessian_sampling_rate = 0.5;
    opts.inner = inner;
    if (inner == PnInnerSolver::kRcSfista) {
      opts.k = 4;
    }
    opts.tol = 0.01;
    opts.f_star = ref.objective;
    const auto result = solve_logistic_prox_newton(problem_, opts);
    EXPECT_TRUE(result.converged)
        << result.solver << " rel_error=" << result.rel_error;
  }
}

TEST_F(LogisticTest, NewtonNeedsFewOuterIterations) {
  // Second-order methods should reach 1% in a handful of outer steps.
  const auto ref = solve_logistic_fista(problem_);
  PnOptions opts;
  opts.max_outer = 20;
  opts.inner_iters = 80;
  opts.hessian_sampling_rate = 1.0;  // exact Hessian
  opts.tol = 0.01;
  opts.f_star = ref.objective;
  const auto result = solve_logistic_prox_newton(problem_, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 12);
}

TEST_F(LogisticTest, ObjectiveMonotone) {
  PnOptions opts;
  opts.max_outer = 10;
  opts.inner_iters = 30;
  opts.hessian_sampling_rate = 0.2;
  const auto result = solve_logistic_prox_newton(problem_, opts);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].objective,
              result.history[i - 1].objective + 1e-12);
  }
}

TEST_F(LogisticTest, OverlapReducesRounds) {
  PnOptions opts;
  opts.max_outer = 3;
  opts.inner_iters = 24;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.procs = 16;
  opts.k = 1;
  const auto k1 = solve_logistic_prox_newton(problem_, opts);
  opts.k = 8;
  const auto k8 = solve_logistic_prox_newton(problem_, opts);
  EXPECT_LT(k8.history.back().comm_rounds, k1.history.back().comm_rounds);
}

TEST_F(LogisticTest, DeterministicForFixedSeed) {
  PnOptions opts;
  opts.max_outer = 4;
  opts.inner_iters = 15;
  opts.seed = 3;
  const auto a = solve_logistic_prox_newton(problem_, opts);
  const auto b = solve_logistic_prox_newton(problem_, opts);
  EXPECT_EQ(a.w, b.w);
}

TEST_F(LogisticTest, InvalidOptionsThrow) {
  PnOptions opts;
  opts.max_outer = 0;
  EXPECT_THROW(solve_logistic_prox_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.hessian_sampling_rate = 2.0;
  EXPECT_THROW(solve_logistic_prox_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.tol = 0.1;
  EXPECT_THROW(solve_logistic_prox_newton(problem_, opts), InvalidArgument);
  // k and s tune the RC-SFISTA inner solver only.
  opts = {};
  opts.k = 4;
  EXPECT_THROW(solve_logistic_prox_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.s = 2;
  EXPECT_THROW(solve_logistic_prox_newton(problem_, opts), InvalidArgument);
}

TEST_F(LogisticTest, EarlyStopReportsLastCompletedIteration) {
  const auto ref = solve_logistic_fista(problem_);
  PnOptions opts;
  opts.max_outer = 20;
  opts.inner_iters = 80;
  opts.hessian_sampling_rate = 1.0;  // exact Hessian
  opts.tol = 0.01;
  opts.f_star = ref.objective;
  const auto result = solve_logistic_prox_newton(problem_, opts);
  ASSERT_TRUE(result.converged);
  ASSERT_FALSE(result.history.empty());
  EXPECT_EQ(result.iterations, result.history.back().iteration);
}

TEST_F(LogisticTest, InnerIterateIsKInvariant) {
  // Block n of outer iteration o samples stream (o << 20) + n at every k,
  // so the RC-SFISTA inner iterates agree bitwise across k.
  PnOptions opts;
  opts.max_outer = 5;
  opts.inner_iters = 24;
  opts.hessian_sampling_rate = 0.3;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.s = 2;
  opts.k = 1;
  const auto base = solve_logistic_prox_newton(problem_, opts);
  for (const int k : {3, 8, opts.inner_iters}) {
    opts.k = k;
    const auto result = solve_logistic_prox_newton(problem_, opts);
    EXPECT_EQ(result.w, base.w) << "k=" << k;
    EXPECT_EQ(result.objective, base.objective) << "k=" << k;
  }
}

TEST_F(LogisticTest, FistaInnerCommunicatesDWordsPerInnerIteration) {
  // The kFista inner is matrix-free: every inner iteration applies the
  // sampled Hessian with two SpMVs and allreduces one d-vector.
  PnOptions opts;
  opts.max_outer = 2;
  opts.inner_iters = 10;
  opts.inner = PnInnerSolver::kFista;
  const auto result = solve_logistic_prox_newton(problem_, opts);
  ASSERT_EQ(result.iterations, 2);
  EXPECT_GE(result.history.back().comm_rounds, 20u);
  const auto* inner = obs::find_phase(result.phases, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->payload_words, 2.0 * 10.0 * 24.0);
}

TEST_F(LogisticTest, ReportsPnPhasesAndConvergence) {
  PnOptions opts;
  opts.max_outer = 4;
  opts.inner_iters = 12;
  opts.hessian_sampling_rate = 0.2;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.k = 4;
  const auto result = solve_logistic_prox_newton(problem_, opts);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  ASSERT_EQ(result.iterations, 4);
  const auto outer = static_cast<std::uint64_t>(result.iterations);
  for (const char* name : {"gradient", "power_iter", "inner", "linesearch"}) {
    const auto* phase = obs::find_phase(result.phases, name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_EQ(phase->count, outer) << name;
  }
  const auto records = result.conv.ordered();
  ASSERT_EQ(records.size(), outer);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].iteration, i + 1);
    EXPECT_EQ(records[i].objective, result.history[i].objective);
  }
}

}  // namespace
}  // namespace rcf::core
