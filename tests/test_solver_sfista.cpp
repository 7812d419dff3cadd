// Tests for the stochastic solver (SFISTA): sampling determinism, variance
// reduction, convergence, and cost accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "core/problem.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"

namespace rcf::core {
namespace {

data::Dataset test_dataset(std::size_t m = 1500, std::size_t d = 48,
                           double condition = 30.0, std::uint64_t seed = 7) {
  data::SyntheticOptions opts;
  opts.num_samples = m;
  opts.num_features = d;
  opts.density = 0.5;
  opts.condition = condition;
  opts.noise_stddev = 0.05;
  opts.seed = seed;
  return data::make_regression(opts);
}

class SfistaTest : public ::testing::Test {
 protected:
  SfistaTest()
      : dataset_(test_dataset()),
        problem_(dataset_, 0.01),
        reference_(solve_reference(problem_)) {}

  data::Dataset dataset_;
  LassoProblem problem_;
  SolveResult reference_;
};

TEST_F(SfistaTest, DeterministicForFixedSeed) {
  SolverOptions opts;
  opts.max_iters = 50;
  opts.sampling_rate = 0.1;
  opts.seed = 9;
  const auto a = solve_sfista(problem_, opts);
  const auto b = solve_sfista(problem_, opts);
  EXPECT_EQ(a.w, b.w);  // bitwise
  EXPECT_EQ(a.objective, b.objective);
}

TEST_F(SfistaTest, DifferentSeedsDiffer) {
  SolverOptions opts;
  opts.max_iters = 50;
  opts.sampling_rate = 0.1;
  opts.seed = 1;
  const auto a = solve_sfista(problem_, opts);
  opts.seed = 2;
  const auto b = solve_sfista(problem_, opts);
  EXPECT_FALSE(a.w == b.w);
}

TEST_F(SfistaTest, FullSamplingEqualsFista) {
  SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 1.0;
  const auto sf = solve_sfista(problem_, opts);
  const auto fi = solve_fista(problem_, opts);
  EXPECT_EQ(sf.w, fi.w);  // same engine, same schedule: bitwise
}

TEST_F(SfistaTest, ConvergesWithSampling) {
  SolverOptions opts;
  opts.max_iters = 600;
  opts.sampling_rate = 0.1;
  opts.variance_reduction = true;
  opts.tol = 0.01;
  opts.f_star = reference_.objective;
  const auto result = solve_sfista(problem_, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.rel_error, 0.011);
}

TEST_F(SfistaTest, VarianceReductionBeatsPlainAtSmallBatch) {
  SolverOptions opts;
  opts.max_iters = 400;
  opts.sampling_rate = 0.02;  // 30 samples per draw: noisy
  opts.f_star = reference_.objective;
  const auto plain = solve_sfista(problem_, opts);
  opts.variance_reduction = true;
  const auto vr = solve_sfista(problem_, opts);
  EXPECT_LT(vr.rel_error, plain.rel_error);
}

TEST_F(SfistaTest, CostAccountingPerIteration) {
  SolverOptions opts;
  opts.max_iters = 20;
  opts.sampling_rate = 0.1;
  opts.procs = 8;
  const auto result = solve_sfista(problem_, opts);
  const double d = 48.0;
  // One allreduce of d^2+d words per iteration, log2(8)=3 messages each.
  EXPECT_DOUBLE_EQ(result.cost.messages(), 20.0 * 3.0);
  EXPECT_DOUBLE_EQ(result.cost.words(), 20.0 * (d * d + d) * 3.0);
  EXPECT_GT(result.cost.flops(), 0.0);
  EXPECT_GT(result.sim_seconds, 0.0);
}

TEST_F(SfistaTest, VarianceReductionChargesAnchorRounds) {
  SolverOptions base;
  base.max_iters = 100;
  base.sampling_rate = 0.1;
  base.procs = 8;
  const auto plain = solve_sfista(problem_, base);
  SolverOptions vr = base;
  vr.variance_reduction = true;
  vr.epoch_length = 25;
  const auto reduced = solve_sfista(problem_, vr);
  // VR adds one d-word allreduce per anchor refresh (iteration 0, then
  // every 25), but its update never reads R, so each round carries the
  // d^2-word H block alone: 100 * 48^2 * 3 + 4 * 48 * 3 words against
  // 100 * (48^2 + 48) * 3 (log2 8 = 3 words per payload word).
  EXPECT_GT(reduced.cost.messages(), plain.cost.messages());
  EXPECT_EQ(plain.cost.words(), 705600.0);
  EXPECT_EQ(reduced.cost.words(), 691776.0);
}

TEST_F(SfistaTest, SmallerBatchLowersGramFlops) {
  SolverOptions opts;
  opts.max_iters = 30;
  opts.sampling_rate = 0.5;
  const auto big = solve_sfista(problem_, opts);
  opts.sampling_rate = 0.05;
  const auto small = solve_sfista(problem_, opts);
  EXPECT_LT(small.cost.flops(model::Phase::kGram),
            big.cost.flops(model::Phase::kGram));
}

TEST_F(SfistaTest, HistoryRecordsRawCounters) {
  SolverOptions opts;
  opts.max_iters = 30;
  opts.sampling_rate = 0.1;
  const auto result = solve_sfista(problem_, opts);
  ASSERT_EQ(result.history.size(), 30u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GT(result.history[i].raw_gram_flops,
              result.history[i - 1].raw_gram_flops);
    EXPECT_GT(result.history[i].raw_update_flops,
              result.history[i - 1].raw_update_flops);
    EXPECT_GE(result.history[i].comm_payload_words,
              result.history[i - 1].comm_payload_words);
  }
  EXPECT_DOUBLE_EQ(result.history.back().comm_payload_words,
                   30.0 * (48.0 * 48.0 + 48.0));
}

TEST_F(SfistaTest, EpochLengthValidation) {
  SolverOptions opts;
  opts.variance_reduction = true;
  opts.epoch_length = 0;
  EXPECT_THROW(solve_sfista(problem_, opts), InvalidArgument);
}

TEST_F(SfistaTest, AdaptiveRestartConvergesAndIsDeterministic) {
  SolverOptions opts;
  opts.max_iters = 400;
  opts.sampling_rate = 0.1;
  opts.variance_reduction = true;
  opts.adaptive_restart = true;
  opts.tol = 0.01;
  opts.f_star = reference_.objective;
  const auto a = solve_sfista(problem_, opts);
  const auto b = solve_sfista(problem_, opts);
  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.w, b.w);
}

TEST_F(SfistaTest, AdaptiveRestartStabilizesSmallBatchHighD) {
  // mbar << d: plain momentum amplifies rank-deficient sampled-Hessian
  // noise; the restart keeps the trajectory bounded.
  data::SyntheticOptions gen;
  gen.num_samples = 400;
  gen.num_features = 200;
  gen.density = 1.0;
  gen.condition = 30.0;
  gen.noise_stddev = 0.05;
  gen.seed = 77;
  const auto ds = data::make_regression(gen);
  const LassoProblem problem(ds, 0.002);
  SolverOptions opts;
  opts.max_iters = 300;
  opts.sampling_rate = 0.05;  // mbar = 20 << d = 200
  opts.variance_reduction = true;
  opts.s = 3;
  opts.adaptive_restart = true;
  const auto stable = solve_rc_sfista(problem, opts);
  EXPECT_TRUE(std::isfinite(stable.objective));
  la::Vector zero(200);
  EXPECT_LT(stable.objective, problem.objective(zero.span()));
}

}  // namespace
}  // namespace rcf::core
