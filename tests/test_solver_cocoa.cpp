// Tests for the ProxCoCoA baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "core/problem.hpp"
#include "core/prox_cocoa.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"

namespace rcf::core {
namespace {

data::Dataset test_dataset() {
  data::SyntheticOptions opts;
  opts.num_samples = 900;
  opts.num_features = 30;
  opts.density = 0.5;
  opts.condition = 10.0;
  opts.noise_stddev = 0.05;
  opts.seed = 19;
  return data::make_regression(opts);
}

class CocoaTest : public ::testing::Test {
 protected:
  CocoaTest()
      : dataset_(test_dataset()),
        problem_(dataset_, 0.01),
        reference_(solve_reference(problem_)) {}

  data::Dataset dataset_;
  LassoProblem problem_;
  SolveResult reference_;
};

TEST_F(CocoaTest, SingleWorkerIsCoordinateDescent) {
  // P = 1, adding aggregation: exact cyclic coordinate descent, which must
  // converge to the lasso optimum.
  CocoaOptions opts;
  opts.max_rounds = 300;
  opts.procs = 1;
  opts.tol = 0.01;
  opts.f_star = reference_.objective;
  const auto result = solve_prox_cocoa(problem_, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.solver, "prox-cocoa");
}

TEST_F(CocoaTest, EarlyStopReportsLastCompletedRound) {
  CocoaOptions opts;
  opts.max_rounds = 300;
  opts.procs = 1;
  opts.tol = 0.01;
  opts.f_star = reference_.objective;
  const auto result = solve_prox_cocoa(problem_, opts);
  ASSERT_TRUE(result.converged);
  ASSERT_FALSE(result.history.empty());
  EXPECT_EQ(result.iterations, result.history.back().iteration);
}

TEST_F(CocoaTest, ManyWorkersStillDecrease) {
  CocoaOptions opts;
  opts.max_rounds = 60;
  opts.procs = 8;
  opts.f_star = reference_.objective;
  const auto result = solve_prox_cocoa(problem_, opts);
  ASSERT_FALSE(result.history.empty());
  EXPECT_LT(result.history.back().objective,
            result.history.front().objective);
  // Objective must never increase (block-separable descent with safe
  // aggregation).
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].objective,
              result.history[i - 1].objective + 1e-10);
  }
}

TEST_F(CocoaTest, MoreWorkersSlowPerRoundProgress) {
  // The sigma' = P scaling makes per-round progress conservative: after a
  // fixed number of rounds, more workers must not be (much) better.
  CocoaOptions opts;
  opts.max_rounds = 30;
  opts.procs = 1;
  const auto p1 = solve_prox_cocoa(problem_, opts);
  opts.procs = 16;
  const auto p16 = solve_prox_cocoa(problem_, opts);
  EXPECT_GE(p16.objective, p1.objective - 1e-9);
}

TEST_F(CocoaTest, MaintainedObjectiveMatchesRecomputed) {
  CocoaOptions opts;
  opts.max_rounds = 25;
  opts.procs = 4;
  const auto result = solve_prox_cocoa(problem_, opts);
  // History objective comes from the incrementally maintained residual; it
  // must agree with a from-scratch evaluation at the final iterate.
  EXPECT_NEAR(result.history.back().objective, result.objective,
              1e-9 * std::max(1.0, std::abs(result.objective)));
}

TEST_F(CocoaTest, CommunicationChargesMWordsPerRound) {
  CocoaOptions opts;
  opts.max_rounds = 10;
  opts.procs = 8;  // log2 = 3
  const auto result = solve_prox_cocoa(problem_, opts);
  EXPECT_DOUBLE_EQ(result.cost.messages(), 10.0 * 3.0);
  EXPECT_DOUBLE_EQ(result.cost.words(), 10.0 * 900.0 * 3.0);
}

TEST_F(CocoaTest, DeterministicForFixedSeed) {
  CocoaOptions opts;
  opts.max_rounds = 15;
  opts.procs = 4;
  opts.seed = 77;
  const auto a = solve_prox_cocoa(problem_, opts);
  const auto b = solve_prox_cocoa(problem_, opts);
  EXPECT_EQ(a.w, b.w);
}

TEST_F(CocoaTest, LocalEpochsAccelerateRounds) {
  CocoaOptions opts;
  opts.max_rounds = 20;
  opts.procs = 4;
  opts.local_epochs = 1;
  const auto e1 = solve_prox_cocoa(problem_, opts);
  opts.local_epochs = 4;
  const auto e4 = solve_prox_cocoa(problem_, opts);
  EXPECT_LE(e4.objective, e1.objective + 1e-12);
}

TEST_F(CocoaTest, InvalidOptionsThrow) {
  CocoaOptions opts;
  opts.max_rounds = 0;
  EXPECT_THROW(solve_prox_cocoa(problem_, opts), InvalidArgument);
  opts = {};
  opts.local_epochs = 0;
  EXPECT_THROW(solve_prox_cocoa(problem_, opts), InvalidArgument);
  // The shared fields, checked by the solve frame.
  opts = {};
  opts.procs = 0;
  EXPECT_THROW(solve_prox_cocoa(problem_, opts), InvalidArgument);
  opts = {};
  opts.threads = -1;
  EXPECT_THROW(solve_prox_cocoa(problem_, opts), InvalidArgument);
  opts = {};
  opts.tol = 0.1;  // without f_star
  EXPECT_THROW(solve_prox_cocoa(problem_, opts), InvalidArgument);
}

}  // namespace
}  // namespace rcf::core
