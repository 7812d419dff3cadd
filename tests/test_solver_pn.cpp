// Tests for the proximal Newton driver with both inner solvers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/problem.hpp"
#include "core/prox_newton.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"

namespace rcf::core {
namespace {

data::Dataset test_dataset() {
  data::SyntheticOptions opts;
  opts.num_samples = 1000;
  opts.num_features = 36;
  opts.density = 0.4;
  opts.condition = 20.0;
  opts.noise_stddev = 0.05;
  opts.seed = 31;
  return data::make_regression(opts);
}

class PnTest : public ::testing::Test {
 protected:
  PnTest()
      : dataset_(test_dataset()),
        problem_(dataset_, 0.01),
        reference_(solve_reference(problem_)) {}

  data::Dataset dataset_;
  LassoProblem problem_;
  SolveResult reference_;
};

TEST_F(PnTest, FistaInnerConverges) {
  PnOptions opts;
  opts.max_outer = 25;
  opts.inner_iters = 50;
  opts.hessian_sampling_rate = 0.3;
  opts.tol = 0.01;
  opts.f_star = reference_.objective;
  const auto result = solve_proximal_newton(problem_, opts);
  EXPECT_TRUE(result.converged) << "rel_error = " << result.rel_error;
  EXPECT_EQ(result.solver, "pn-fista");
}

TEST_F(PnTest, RcSfistaInnerConverges) {
  PnOptions opts;
  opts.max_outer = 25;
  opts.inner_iters = 50;
  opts.hessian_sampling_rate = 0.3;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.k = 4;
  opts.s = 2;
  opts.tol = 0.01;
  opts.f_star = reference_.objective;
  const auto result = solve_proximal_newton(problem_, opts);
  EXPECT_TRUE(result.converged) << "rel_error = " << result.rel_error;
  EXPECT_EQ(result.solver, "pn-rc-sfista");
}

TEST_F(PnTest, ObjectiveMonotoneUnderSafeguard) {
  PnOptions opts;
  opts.max_outer = 12;
  opts.inner_iters = 25;
  opts.hessian_sampling_rate = 0.1;  // noisy Hessians: safeguard must act
  opts.inner = PnInnerSolver::kRcSfista;
  const auto result = solve_proximal_newton(problem_, opts);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].objective,
              result.history[i - 1].objective + 1e-12);
  }
}

TEST_F(PnTest, DeterministicForFixedSeed) {
  PnOptions opts;
  opts.max_outer = 6;
  opts.inner_iters = 20;
  opts.seed = 5;
  const auto a = solve_proximal_newton(problem_, opts);
  const auto b = solve_proximal_newton(problem_, opts);
  EXPECT_EQ(a.w, b.w);
}

TEST_F(PnTest, OverlapReducesRounds) {
  PnOptions opts;
  opts.max_outer = 4;
  opts.inner_iters = 32;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.procs = 16;
  opts.k = 1;
  const auto k1 = solve_proximal_newton(problem_, opts);
  opts.k = 8;
  const auto k8 = solve_proximal_newton(problem_, opts);
  // Inner-solve allreduce rounds shrink by ~k; the shared per-outer rounds
  // (gradient + step probe) are identical.
  EXPECT_LT(k8.history.back().comm_rounds, k1.history.back().comm_rounds);
  EXPECT_LT(k8.cost.messages(), k1.cost.messages());
}

TEST_F(PnTest, FistaInnerCommunicatesDWordsPerInnerIteration) {
  PnOptions opts;
  opts.max_outer = 2;
  opts.inner_iters = 10;
  opts.procs = 4;
  const auto result = solve_proximal_newton(problem_, opts);
  // Every inner iteration is one allreduce round (plus per-outer overhead),
  // so rounds must exceed max_outer * inner_iters.
  EXPECT_GE(result.history.back().comm_rounds, 2u * 10u);
}

TEST_F(PnTest, InvalidOptionsThrow) {
  PnOptions opts;
  opts.max_outer = 0;
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.inner_iters = 0;
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.hessian_sampling_rate = 0.0;
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
  // The shared fields, checked by the solve frame.
  opts = {};
  opts.procs = 0;
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.threads = -1;
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.tol = 0.1;  // without f_star
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
  // k and s tune the RC-SFISTA inner solver only.
  opts = {};
  opts.inner = PnInnerSolver::kFista;
  opts.k = 4;
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
  opts = {};
  opts.inner = PnInnerSolver::kFista;
  opts.s = 2;
  EXPECT_THROW(solve_proximal_newton(problem_, opts), InvalidArgument);
}

TEST_F(PnTest, EarlyStopReportsLastCompletedIteration) {
  PnOptions opts;
  opts.tol = 0.01;
  opts.f_star = reference_.objective;
  const auto result = solve_proximal_newton(problem_, opts);
  ASSERT_TRUE(result.converged);
  ASSERT_FALSE(result.history.empty());
  EXPECT_LT(result.iterations, opts.max_outer);
  EXPECT_EQ(result.iterations, result.history.back().iteration);
}

TEST_F(PnTest, InnerIterateIsKInvariant) {
  // The Fig. 2(b) identity for PN's RC-SFISTA inner solves: block n of
  // outer iteration o samples stream (o << 20) + n at every k, so k is a
  // communication schedule and the iterates agree bitwise.
  PnOptions opts;
  opts.max_outer = 5;
  opts.inner_iters = 24;
  opts.hessian_sampling_rate = 0.3;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.s = 2;
  opts.k = 1;
  const auto base = solve_proximal_newton(problem_, opts);
  for (const int k : {3, 8, opts.inner_iters}) {
    opts.k = k;
    const auto result = solve_proximal_newton(problem_, opts);
    EXPECT_EQ(result.w, base.w) << "k=" << k;
    EXPECT_EQ(result.objective, base.objective) << "k=" << k;
  }
}

TEST_F(PnTest, HistoryTracksOuterIterations) {
  PnOptions opts;
  opts.max_outer = 7;
  opts.inner_iters = 10;
  const auto result = solve_proximal_newton(problem_, opts);
  EXPECT_EQ(result.history.size(), 7u);
  EXPECT_EQ(result.history.back().iteration, 7);
}

}  // namespace
}  // namespace rcf::core
