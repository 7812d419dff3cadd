// Tests for the deterministic solvers (ISTA / FISTA / reference), the
// momentum schedule, and the lasso optimality of the reference solution.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/momentum.hpp"
#include "la/blas.hpp"
#include "core/problem.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"

namespace rcf::core {
namespace {

data::Dataset test_dataset(std::size_t m = 800, std::size_t d = 40,
                           double condition = 20.0, std::uint64_t seed = 42) {
  data::SyntheticOptions opts;
  opts.num_samples = m;
  opts.num_features = d;
  opts.density = 0.4;
  opts.condition = condition;
  opts.noise_stddev = 0.05;
  opts.seed = seed;
  return data::make_regression(opts);
}

class FistaTest : public ::testing::Test {
 protected:
  FistaTest() : dataset_(test_dataset()), problem_(dataset_, lambda_) {}

  static constexpr double lambda_ = 0.01;
  data::Dataset dataset_;
  LassoProblem problem_;
};

TEST(MomentumSchedule, StandardFistaValues) {
  const MomentumSchedule mu(MomentumRule::kFista);
  EXPECT_DOUBLE_EQ(mu.t(0), 1.0);
  EXPECT_NEAR(mu.t(1), (1.0 + std::sqrt(5.0)) / 2.0, 1e-15);
  EXPECT_DOUBLE_EQ(mu.mu(1), 0.0);
  EXPECT_GT(mu.mu(2), 0.0);
  // t_n grows ~ n/2, so mu_n -> 1.
  EXPECT_GT(mu.mu(200), 0.97);
  // Monotone increasing mu.
  for (int n = 2; n < 50; ++n) {
    EXPECT_GT(mu.mu(n + 1), mu.mu(n));
  }
}

TEST(MomentumSchedule, PaperTypoLosesAcceleration) {
  const MomentumSchedule mu(MomentumRule::kPaperTypo);
  // t converges to the fixed point 4/3, mu to 1/4.
  EXPECT_NEAR(mu.t(200), 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(mu.mu(200), 0.25, 1e-6);
}

TEST(MomentumSchedule, NoneIsZero) {
  const MomentumSchedule mu(MomentumRule::kNone);
  for (int n = 1; n < 20; ++n) {
    EXPECT_DOUBLE_EQ(mu.mu(n), 0.0);
  }
}

TEST(MomentumSchedule, RandomAccessConsistency) {
  const MomentumSchedule a(MomentumRule::kFista);
  const MomentumSchedule b(MomentumRule::kFista);
  const double late = a.mu(100);  // force extension out of order
  EXPECT_DOUBLE_EQ(a.mu(3), b.mu(3));
  EXPECT_DOUBLE_EQ(late, b.mu(100));
  EXPECT_THROW((void)a.mu(0), InvalidArgument);
  EXPECT_THROW((void)a.t(-1), InvalidArgument);
}

TEST_F(FistaTest, ProblemBasics) {
  EXPECT_EQ(problem_.dim(), 40u);
  EXPECT_EQ(problem_.num_samples(), 800u);
  EXPECT_GT(problem_.lipschitz(), 0.0);
  EXPECT_GT(problem_.lambda_max(), 0.0);
  // Objective at zero is (1/2m)||y||^2.
  la::Vector zero(40);
  double y2 = 0.0;
  for (std::size_t i = 0; i < 800; ++i) {
    y2 += dataset_.y[i] * dataset_.y[i];
  }
  EXPECT_NEAR(problem_.objective(zero.span()), y2 / 1600.0, 1e-12);
}

TEST_F(FistaTest, GradientMatchesFiniteDifferences) {
  la::Vector w(40);
  Rng rng(3, 0);
  for (auto& v : w) v = rng.normal();
  la::Vector grad(40);
  problem_.gradient(w.span(), grad.span());
  const double h = 1e-6;
  for (std::size_t j : {0ul, 7ul, 39ul}) {
    la::Vector wp = w, wm = w;
    wp[j] += h;
    wm[j] -= h;
    const double fd =
        (problem_.smooth_value(wp.span()) - problem_.smooth_value(wm.span())) /
        (2.0 * h);
    EXPECT_NEAR(grad[j], fd, 1e-5);
  }
}

TEST_F(FistaTest, GradientMatchesHessianForm) {
  // grad f(w) = H w - R with the cached full Gram pair.
  la::Vector w(40);
  Rng rng(4, 0);
  for (auto& v : w) v = rng.normal();
  la::Vector g1(40), g2(40);
  problem_.gradient(w.span(), g1.span());
  la::gemv(1.0, problem_.full_hessian(), w.span(), 0.0, g2.span());
  la::axpy(-1.0, problem_.full_rhs().span(), g2.span());
  EXPECT_LT(la::max_abs_diff(g1.span(), g2.span()), 1e-10);
}

TEST_F(FistaTest, LipschitzBoundsHessianSpectrum) {
  // L must dominate the Rayleigh quotient of H for random directions.
  Rng rng(5, 0);
  const auto& h = problem_.full_hessian();
  for (int trial = 0; trial < 10; ++trial) {
    la::Vector v(40), hv(40);
    for (auto& x : v) x = rng.normal();
    la::gemv(1.0, h, v.span(), 0.0, hv.span());
    const double rayleigh =
        la::dot(v.span(), hv.span()) / la::dot(v.span(), v.span());
    EXPECT_LE(rayleigh, problem_.lipschitz() * 1.0001);
  }
}

TEST_F(FistaTest, ReferenceSatisfiesLassoOptimality) {
  const auto ref = solve_reference(problem_);
  EXPECT_TRUE(ref.converged);
  la::Vector grad(40);
  problem_.gradient(ref.w.span(), grad.span());
  for (std::size_t j = 0; j < 40; ++j) {
    if (ref.w[j] != 0.0) {
      // grad_j + lambda sign(w_j) = 0 on the support.
      EXPECT_NEAR(grad[j] + lambda_ * (ref.w[j] > 0 ? 1.0 : -1.0), 0.0, 1e-6);
    } else {
      // |grad_j| <= lambda off the support.
      EXPECT_LE(std::abs(grad[j]), lambda_ + 1e-6);
    }
  }
}

TEST_F(FistaTest, ConvergesToReference) {
  const auto ref = solve_reference(problem_);
  SolverOptions opts;
  opts.max_iters = 400;
  opts.tol = 1e-3;
  opts.f_star = ref.objective;
  const auto result = solve_fista(problem_, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.rel_error, 1e-3);
  EXPECT_EQ(result.solver, "fista");
}

TEST_F(FistaTest, FistaBeatsIstaAtFixedIterations) {
  SolverOptions opts;
  opts.max_iters = 60;
  const auto fista = solve_fista(problem_, opts);
  opts.momentum = MomentumRule::kNone;  // ISTA
  const auto ista = solve_fista(problem_, opts);
  EXPECT_LT(fista.objective, ista.objective);
}

TEST_F(FistaTest, PaperTypoMomentumIsSlower) {
  SolverOptions opts;
  opts.max_iters = 120;
  const auto standard = solve_fista(problem_, opts);
  opts.momentum = MomentumRule::kPaperTypo;
  const auto typo = solve_fista(problem_, opts);
  EXPECT_LT(standard.objective, typo.objective);
}

TEST_F(FistaTest, ObjectiveDecreasesOverall) {
  SolverOptions opts;
  opts.max_iters = 100;
  const auto result = solve_fista(problem_, opts);
  ASSERT_GE(result.history.size(), 100u);
  EXPECT_LT(result.history.back().objective,
            result.history.front().objective);
  // Sim-seconds and comm-rounds must be monotone.
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].sim_seconds,
              result.history[i - 1].sim_seconds);
    EXPECT_GE(result.history[i].comm_rounds,
              result.history[i - 1].comm_rounds);
  }
}

TEST_F(FistaTest, TolWithoutFStarThrows) {
  SolverOptions opts;
  opts.tol = 0.01;  // no f_star
  EXPECT_THROW(solve_fista(problem_, opts), InvalidArgument);
}

TEST_F(FistaTest, InvalidOptionsThrow) {
  SolverOptions opts;
  opts.k = 0;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  opts = {};
  opts.s = -1;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  opts = {};
  opts.sampling_rate = 0.0;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  opts = {};
  opts.sampling_rate = 1.5;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  opts = {};
  opts.max_iters = 0;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  // The shared fields, checked by the solve frame.
  opts = {};
  opts.procs = 0;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  opts = {};
  opts.threads = -1;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  opts = {};
  opts.tol = 0.1;  // without f_star
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  // The VR knob without variance_reduction.
  opts = {};
  opts.epoch_length = 10;
  EXPECT_THROW(solve_rc_sfista(problem_, opts), InvalidArgument);
  // Fields a facade fixes.
  SolverOptions k2, s2, half_batch, vr;
  k2.k = 2;
  s2.s = 2;
  half_batch.sampling_rate = 0.5;
  vr.variance_reduction = true;
  for (const SolverOptions& o : {k2, s2, half_batch, vr}) {
    EXPECT_THROW(solve_fista(problem_, o), InvalidArgument);
  }
  for (const SolverOptions& o : {k2, s2}) {
    EXPECT_THROW(solve_sfista(problem_, o), InvalidArgument);
  }
}

TEST_F(FistaTest, Theorem1StepBound) {
  // Full batch: the variance term of Eq. 10 collapses to sqrt(1/4), so the
  // bound is 1 / max(L/2 + 1/2, L).
  const double l = problem_.lipschitz();
  EXPECT_NEAR(problem_.theorem1_step_bound(800),
              1.0 / std::max(0.5 * l + 0.5, l), 1e-12);
  // Smaller batches force smaller steps.
  EXPECT_LT(problem_.theorem1_step_bound(8),
            problem_.theorem1_step_bound(400));
  // The bound never exceeds the classical 2/L region boundary scaled form.
  EXPECT_LE(problem_.theorem1_step_bound(8), 1.0 / l);
  EXPECT_THROW((void)problem_.theorem1_step_bound(0), InvalidArgument);
  EXPECT_THROW((void)problem_.theorem1_step_bound(801), InvalidArgument);
}

}  // namespace
}  // namespace rcf::core
