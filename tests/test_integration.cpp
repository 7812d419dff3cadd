// End-to-end integration tests: the full public-API flow on paper-dataset
// clones, cross-solver agreement, and reproducibility.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "rcf.hpp"

namespace rcf {
namespace {

TEST(Integration, QuickstartFlowOnCovtypeClone) {
  // Mirrors examples/quickstart.cpp: clone -> problem -> reference ->
  // RC-SFISTA to the paper's tolerance.
  const auto dataset = data::make_paper_clone("covtype", 0.01);
  EXPECT_EQ(dataset.num_features(), 54u);
  const core::LassoProblem probe(dataset, 0.0);
  const double lambda = 0.01 * probe.lambda_max();
  const core::LassoProblem problem(dataset, lambda);
  const auto ref = core::solve_reference(problem);
  ASSERT_TRUE(ref.converged);

  core::SolverOptions opts;
  opts.max_iters = 800;
  opts.sampling_rate = 0.1;
  opts.k = 8;
  opts.s = 2;
  opts.variance_reduction = true;
  opts.tol = 0.01;
  opts.f_star = ref.objective;
  opts.procs = 16;
  const auto result = core::solve_rc_sfista(problem, opts);
  EXPECT_TRUE(result.converged) << "rel_error = " << result.rel_error;
  EXPECT_GT(result.cost.messages(), 0.0);
  EXPECT_GT(result.sim_seconds, 0.0);
}

TEST(Integration, AllSolversReachTheSameOptimum) {
  const auto dataset = data::make_paper_clone("SUSY", 0.005);
  const core::LassoProblem probe(dataset, 0.0);
  const double lambda = 0.01 * probe.lambda_max();
  const core::LassoProblem problem(dataset, lambda);
  const auto ref = core::solve_reference(problem);

  core::SolverOptions fopts;
  fopts.max_iters = 2000;
  fopts.tol = 0.005;
  fopts.f_star = ref.objective;
  const auto fista = core::solve_fista(problem, fopts);

  core::SolverOptions sopts = fopts;
  sopts.sampling_rate = 0.1;
  sopts.variance_reduction = true;
  const auto rc = core::solve_rc_sfista(problem, sopts);

  core::PnOptions popts;
  popts.max_outer = 40;
  // PN's accuracy at a given budget is set by the inexact inner solve (each
  // outer iteration restarts the inner momentum) and the sampled-Hessian
  // bias, so it gets a deeper inner budget and the looser paper tolerance.
  popts.inner_iters = 120;
  popts.hessian_sampling_rate = 0.5;
  popts.tol = 0.01;
  popts.f_star = ref.objective;
  const auto pn = core::solve_proximal_newton(problem, popts);

  core::CocoaOptions copts;
  copts.max_rounds = 4000;
  copts.local_epochs = 2;
  copts.procs = 4;
  copts.tol = 0.005;
  copts.f_star = ref.objective;
  const auto cocoa = core::solve_prox_cocoa(problem, copts);

  for (const auto* r : {&fista, &rc, &pn, &cocoa}) {
    EXPECT_TRUE(r->converged) << r->solver << " rel_error=" << r->rel_error;
    EXPECT_NEAR(r->objective, ref.objective,
                0.015 * std::abs(ref.objective))
        << r->solver;
  }
}

TEST(Integration, SupportRecovery) {
  // With low noise and strong-enough signal the lasso support must be a
  // subset of the planted support (no false positives at this lambda).
  data::SyntheticOptions gen;
  gen.num_samples = 2000;
  gen.num_features = 50;
  gen.density = 1.0;
  gen.support_fraction = 0.2;  // 10 true features
  gen.noise_stddev = 0.01;
  gen.condition = 1.0;
  gen.seed = 3;
  const auto dataset = data::make_regression(gen);
  const core::LassoProblem probe(dataset, 0.0);
  const core::LassoProblem problem(dataset, 0.05 * probe.lambda_max());
  const auto ref = core::solve_reference(problem);
  int support = 0;
  for (double v : ref.w) {
    support += v != 0.0;
  }
  EXPECT_GE(support, 5);
  EXPECT_LE(support, 20);
}

TEST(Integration, FullRunIsReproducible) {
  const auto d1 = data::make_paper_clone("covtype", 0.005, 11);
  const auto d2 = data::make_paper_clone("covtype", 0.005, 11);
  EXPECT_EQ(d1.xt, d2.xt);
  const core::LassoProblem p1(d1, 0.001), p2(d2, 0.001);
  core::SolverOptions opts;
  opts.max_iters = 60;
  opts.sampling_rate = 0.1;
  opts.k = 4;
  const auto r1 = core::solve_rc_sfista(p1, opts);
  const auto r2 = core::solve_rc_sfista(p2, opts);
  EXPECT_EQ(r1.w, r2.w);
}

TEST(Integration, DistributedEndToEnd) {
  const auto dataset = data::make_paper_clone("SUSY", 0.002);
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.max_iters = 60;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.s = 2;
  opts.track_history = false;
  const auto seq = core::solve_rc_sfista(problem, opts);
  dist::ThreadGroup group(4);
  const auto par = core::solve_rc_sfista_distributed(problem, opts, group);
  EXPECT_LT(la::max_abs_diff(seq.w.span(), par.w.span()), 1e-9);
  EXPECT_NEAR(seq.objective, par.objective,
              1e-9 * std::abs(seq.objective) + 1e-12);
}

TEST(Integration, NonFiniteLabelFailsEverySolver) {
  // One NaN label makes F(w) NaN at every iterate: each solver must report
  // a structured failure, never an ok() result with a NaN objective.
  data::SyntheticOptions gen;
  gen.num_samples = 200;
  gen.num_features = 12;
  gen.density = 0.5;
  auto dataset = data::make_regression(gen);
  dataset.y[7] = std::numeric_limits<double>::quiet_NaN();
  const core::LassoProblem problem(dataset, 0.01);
  core::SolverOptions ropts;
  ropts.max_iters = 20;
  core::PnOptions popts;
  popts.max_outer = 3;
  popts.inner_iters = 5;
  core::CocoaOptions copts;
  copts.max_rounds = 5;
  for (const auto& r : {core::solve_rc_sfista(problem, ropts),
                        core::solve_proximal_newton(problem, popts),
                        core::solve_prox_cocoa(problem, copts)}) {
    EXPECT_FALSE(r.ok()) << r.solver;
    EXPECT_FALSE(r.failure_reason.empty()) << r.solver;
  }
}

TEST(Integration, CostModelRoundTripThroughRecords) {
  // The per-record raw counters must reproduce the tracker's modeled time
  // for the run's own (P, machine, collective).
  const auto dataset = data::make_paper_clone("covtype", 0.005);
  const core::LassoProblem problem(dataset, 0.001);
  core::SolverOptions opts;
  opts.max_iters = 64;
  opts.sampling_rate = 0.1;
  opts.k = 4;
  opts.procs = 16;
  const auto run = core::solve_rc_sfista(problem, opts);
  const auto& last = run.history.back();

  // Rebuild the time from raw counters (balanced-partition approximation).
  const double lg = 4.0;  // log2(16)
  const auto& m = opts.machine;
  const double rebuilt =
      m.gamma * (last.raw_gram_flops / 16.0 + last.raw_update_flops) +
      m.alpha_effective() * static_cast<double>(last.comm_rounds) * lg +
      m.beta * last.comm_payload_words * lg;
  // The tracker uses the true per-rank max for Gram flops, so allow a few
  // percent of imbalance.
  EXPECT_NEAR(rebuilt, run.sim_seconds, 0.1 * run.sim_seconds);
}

TEST(Integration, LibsvmRoundTripThroughSolver) {
  // Write a clone to LIBSVM, read it back, and verify the solver sees the
  // identical problem.
  const auto dataset = data::make_paper_clone("SUSY", 0.001);
  const std::string path = std::string(::testing::TempDir()) + "/susy.svm";
  sparse::write_libsvm(path, {dataset.xt, dataset.y});
  const auto loaded = sparse::read_libsvm(path, dataset.num_features());
  EXPECT_EQ(loaded.xt, dataset.xt);

  data::Dataset reloaded;
  reloaded.name = "reloaded";
  reloaded.xt = loaded.xt;
  reloaded.y = loaded.y;
  const core::LassoProblem p1(dataset, 0.01), p2(reloaded, 0.01);
  core::SolverOptions opts;
  opts.max_iters = 30;
  opts.sampling_rate = 0.5;
  const auto r1 = core::solve_rc_sfista(p1, opts);
  const auto r2 = core::solve_rc_sfista(p2, opts);
  EXPECT_EQ(r1.w, r2.w);
}

}  // namespace
}  // namespace rcf
