// Tests for the fault-injection & resilience layer (src/fault, dist/retry,
// PN checkpoint/restore).  Suites are named Fault* so the CI TSan job can
// select them alongside the comm suites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/distributed.hpp"
#include "core/logistic.hpp"
#include "core/problem.hpp"
#include "core/prox_newton.hpp"
#include "data/synthetic.hpp"
#include "dist/comm.hpp"
#include "dist/retry.hpp"
#include "dist/thread_comm.hpp"
#include "fault/faulty_comm.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"

namespace rcf {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: grammar, scoping, iteration points.
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesSingleSpec) {
  const auto plan = fault::parse_fault_plan("delay:rank=1,us=2000,every=3");
  ASSERT_EQ(plan.specs.size(), 1u);
  const auto& s = plan.specs[0];
  EXPECT_EQ(s.kind, fault::FaultKind::kDelay);
  EXPECT_EQ(s.rank, 1);
  EXPECT_EQ(s.us, 2000u);
  EXPECT_EQ(s.every, 3u);
  EXPECT_FALSE(s.call.has_value());
}

TEST(FaultPlan, ParsesMultiSpecAndDescribes) {
  const auto plan = fault::parse_fault_plan(
      "transient:rank=2,call=4;nan:rank=0,call=1,words=8;"
      "bitflip:rank=3,call=2,word=7,bit=52");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].kind, fault::FaultKind::kTransient);
  ASSERT_TRUE(plan.specs[0].call.has_value());
  EXPECT_EQ(*plan.specs[0].call, 4u);
  EXPECT_EQ(plan.specs[1].words, 8u);
  EXPECT_EQ(plan.specs[2].bit, 52u);
  // Breaking kinds default to a single firing.
  EXPECT_EQ(plan.specs[0].count, 1u);
  const std::string text = fault::describe(plan);
  EXPECT_NE(text.find("transient"), std::string::npos);
  EXPECT_NE(text.find("bitflip"), std::string::npos);
}

TEST(FaultPlan, ParsesIterationAbort) {
  const auto plan = fault::parse_fault_plan("abort:at=pn.outer,index=5");
  ASSERT_EQ(plan.specs.size(), 1u);
  EXPECT_EQ(plan.specs[0].kind, fault::FaultKind::kIterAbort);
  EXPECT_EQ(plan.specs[0].at, "pn.outer");
  EXPECT_EQ(plan.specs[0].index, 5u);
}

TEST(FaultPlan, RejectsMalformedPlans) {
  EXPECT_THROW(fault::parse_fault_plan("explode:rank=1"), InvalidArgument);
  EXPECT_THROW(fault::parse_fault_plan("delay:rank=1"), InvalidArgument);
  EXPECT_THROW(fault::parse_fault_plan("delay:us=abc"), InvalidArgument);
  EXPECT_THROW(fault::parse_fault_plan("delay:us=10,bogus=1"),
               InvalidArgument);
  EXPECT_THROW(fault::parse_fault_plan("bitflip:bit=64"), InvalidArgument);
  EXPECT_THROW(fault::parse_fault_plan("nan:words=0"), InvalidArgument);
}

TEST(FaultPlan, ScopedPlanNestsAndRestores) {
  const fault::FaultPlan* outer_before = fault::active_plan();
  {
    fault::ScopedFaultPlan outer{std::string_view("delay:us=1")};
    const fault::FaultPlan* outer_plan = fault::active_plan();
    ASSERT_NE(outer_plan, nullptr);
    EXPECT_EQ(outer_plan->specs[0].kind, fault::FaultKind::kDelay);
    {
      fault::ScopedFaultPlan inner{std::string_view("skew:us=5")};
      ASSERT_NE(fault::active_plan(), nullptr);
      EXPECT_EQ(fault::active_plan()->specs[0].kind, fault::FaultKind::kSkew);
    }
    EXPECT_EQ(fault::active_plan(), outer_plan);
  }
  EXPECT_EQ(fault::active_plan(), outer_before);
}

TEST(FaultPlan, IterationPointFiresOnlyOnMatch) {
  fault::ScopedFaultPlan scoped{std::string_view("abort:at=pn.outer,index=3")};
  EXPECT_NO_THROW(fault::iteration_point("pn.outer", 2));
  EXPECT_NO_THROW(fault::iteration_point("other.loop", 3));
  EXPECT_THROW(fault::iteration_point("pn.outer", 3), fault::FaultAbort);
  EXPECT_NO_THROW(fault::iteration_point("pn.outer", 4));
}

// ---------------------------------------------------------------------------
// FaultyComm: injection mechanics over a 1-rank backend.
// ---------------------------------------------------------------------------

TEST(FaultyComm, DelayCountsAsInjectedFault) {
  const auto plan = fault::parse_fault_plan("delay:us=1,every=2");
  dist::SeqComm seq;
  fault::FaultyComm faulty(seq, &plan);
  std::vector<double> buf(4, 1.0);
  for (int i = 0; i < 6; ++i) {
    faulty.allreduce_sum(buf);
  }
  // Fires at call indices 0, 2, 4.
  EXPECT_EQ(faulty.faults_injected(), 3u);
  EXPECT_EQ(faulty.stats().faults_injected, 3u);
  EXPECT_EQ(faulty.stats().allreduce_calls, 6u);
}

TEST(FaultyComm, NanPoisonFiresOnce) {
  const auto plan = fault::parse_fault_plan("nan:call=1,words=2");
  dist::SeqComm seq;
  fault::FaultyComm faulty(seq, &plan);
  std::vector<double> buf(4, 1.0);
  faulty.allreduce_sum(buf);  // call 0: clean
  EXPECT_TRUE(std::isfinite(buf[0]));
  std::fill(buf.begin(), buf.end(), 1.0);
  faulty.allreduce_sum(buf);  // call 1: poisoned
  EXPECT_TRUE(std::isnan(buf[0]));
  EXPECT_TRUE(std::isnan(buf[1]));
  EXPECT_DOUBLE_EQ(buf[2], 1.0);
  std::fill(buf.begin(), buf.end(), 1.0);
  faulty.allreduce_sum(buf);  // call 2: spec exhausted
  EXPECT_DOUBLE_EQ(buf[0], 1.0);
  EXPECT_EQ(faulty.faults_injected(), 1u);
}

TEST(FaultyComm, BitFlipTogglesExactBit) {
  const auto plan = fault::parse_fault_plan("bitflip:call=0,word=1,bit=62");
  dist::SeqComm seq;
  fault::FaultyComm faulty(seq, &plan);
  std::vector<double> buf = {1.0, 1.5, 2.0};
  faulty.allreduce_sum(buf);
  EXPECT_DOUBLE_EQ(buf[0], 1.0);
  EXPECT_DOUBLE_EQ(buf[2], 2.0);
  // 1.5 has exponent 0x3FF; setting bit 62 saturates the exponent field,
  // so the corrupted word is a NaN -- exactly what the engine's payload
  // guard (!isfinite || > 1e100) detects.
  EXPECT_FALSE(std::isfinite(buf[1]));
}

TEST(FaultyComm, TransientThrownBeforeBackend) {
  const auto plan = fault::parse_fault_plan("transient:call=0");
  dist::SeqComm seq;
  fault::FaultyComm faulty(seq, &plan);
  std::vector<double> buf(2, 1.0);
  EXPECT_THROW(faulty.allreduce_sum(buf), dist::TransientCommFailure);
  // The failed attempt never reached the backend, and the call index was
  // not consumed -- a retry re-issues the same index (now exhausted).
  EXPECT_EQ(seq.stats().allreduce_calls, 0u);
  faulty.allreduce_sum(buf);
  EXPECT_EQ(seq.stats().allreduce_calls, 1u);
}

TEST(FaultyComm, RankFilterSkipsOtherRanks) {
  const auto plan = fault::parse_fault_plan("abort:rank=3,call=0");
  dist::SeqComm seq;  // rank 0
  fault::FaultyComm faulty(seq, &plan);
  std::vector<double> buf(2, 1.0);
  EXPECT_NO_THROW(faulty.allreduce_sum(buf));
  EXPECT_EQ(faulty.faults_injected(), 0u);
}

TEST(FaultyComm, AuxCollectivesAreNeverFaulted) {
  const auto plan = fault::parse_fault_plan("abort:call=0;delay:us=1");
  dist::SeqComm seq;
  fault::FaultyComm faulty(seq, &plan);
  std::vector<double> buf(2, 1.0);
  {
    dist::Communicator::AuxScope aux(faulty);
    EXPECT_NO_THROW(faulty.allreduce_sum(buf));
  }
  EXPECT_EQ(faulty.faults_injected(), 0u);
  // Outside the scope the abort fires on the still-unconsumed call 0.
  EXPECT_THROW(faulty.allreduce_sum(buf), fault::FaultAbort);
}

// ---------------------------------------------------------------------------
// RetryingComm: absorb / exhaust / account.
// ---------------------------------------------------------------------------

TEST(FaultRetry, AbsorbsTransientFailures) {
  const auto plan = fault::parse_fault_plan("transient:call=0,count=2");
  dist::SeqComm seq;
  fault::FaultyComm faulty(seq, &plan);
  dist::RetryPolicy policy;
  policy.backoff_us = 1;
  dist::RetryingComm retrying(faulty, policy);
  std::vector<double> buf(2, 1.0);
  const auto backoff_before =
      obs::MetricsRegistry::global().counter("comm.backoff_us").value();
  EXPECT_NO_THROW(retrying.allreduce_sum(buf));
  EXPECT_EQ(retrying.retries(), 2u);
  EXPECT_EQ(retrying.stats().retries, 2u);
  EXPECT_EQ(retrying.stats().allreduce_calls, 1u);
  EXPECT_GT(obs::MetricsRegistry::global().counter("comm.backoff_us").value(),
            backoff_before);
}

TEST(FaultRetry, ExhaustsAndRethrows) {
  const auto plan = fault::parse_fault_plan("transient:call=0,count=99");
  dist::SeqComm seq;
  fault::FaultyComm faulty(seq, &plan);
  dist::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_us = 1;
  dist::RetryingComm retrying(faulty, policy);
  std::vector<double> buf(2, 1.0);
  EXPECT_THROW(retrying.allreduce_sum(buf), dist::TransientCommFailure);
  // 1 initial attempt + 3 retries, none of which reached the backend.
  EXPECT_EQ(faulty.faults_injected(), 4u);
  EXPECT_EQ(seq.stats().allreduce_calls, 0u);
}

TEST(FaultRetry, RejectsInvalidPolicy) {
  dist::SeqComm seq;
  dist::RetryPolicy negative;
  negative.max_retries = -1;
  EXPECT_THROW(dist::RetryingComm(seq, negative), Error);
}

// ---------------------------------------------------------------------------
// End-to-end resilience on the 4-rank SPMD backend (small problems; the
// full soak lives in tools/rcf-chaos).
// ---------------------------------------------------------------------------

core::LassoProblem small_problem(data::Dataset& storage) {
  data::SyntheticOptions opts;
  opts.num_samples = 300;
  opts.num_features = 12;
  opts.density = 0.5;
  opts.seed = 5;
  storage = data::make_regression(opts);
  return core::LassoProblem(storage, 0.01);
}

core::SolverOptions small_options() {
  core::SolverOptions opts;
  opts.max_iters = 12;
  opts.sampling_rate = 0.3;
  opts.k = 2;
  opts.s = 2;
  opts.track_history = false;
  opts.retry.backoff_us = 1;
  return opts;
}

TEST(FaultResilience, RecoversBitwiseFromTransientAndPoison) {
  data::Dataset storage;
  const auto problem = small_problem(storage);
  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
  core::SolveResult baseline;
  {
    dist::ThreadGroup group(4);
    baseline = core::solve_rc_sfista_distributed(problem, small_options(),
                                                 group);
  }
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline.comm_stats.faults_injected, 0u);

  fault::ScopedFaultPlan scoped{
      std::string_view("transient:rank=1,call=2;nan:rank=2,call=4,words=3")};
  dist::ThreadGroup group(4);
  const auto result =
      core::solve_rc_sfista_distributed(problem, small_options(), group);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_EQ(la::max_abs_diff(result.w.span(), baseline.w.span()), 0.0);
  EXPECT_GE(result.comm_stats.faults_injected, 2u);
  EXPECT_GE(result.comm_stats.retries, 1u);
}

TEST(FaultResilience, AbortYieldsStructuredFailure) {
  data::Dataset storage;
  const auto problem = small_problem(storage);
  fault::ScopedFaultPlan scoped{std::string_view("abort:rank=2,call=3")};
  dist::ThreadGroup group(4);
  const auto result =
      core::solve_rc_sfista_distributed(problem, small_options(), group);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.failure_reason.find("abort"), std::string::npos);
  EXPECT_GE(result.comm_stats.faults_injected, 1u);
}

TEST(FaultResilience, PersistentPoisonIsRejectedNotPropagated) {
  data::Dataset storage;
  const auto problem = small_problem(storage);
  fault::ScopedFaultPlan scoped{
      std::string_view("nan:rank=0,every=1,count=64")};
  dist::ThreadGroup group(4);
  const auto result =
      core::solve_rc_sfista_distributed(problem, small_options(), group);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.failure_reason.find("corrupt"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore.
// ---------------------------------------------------------------------------

TEST(FaultCheckpoint, JsonRoundTripIsExact) {
  core::PnCheckpoint ck;
  ck.outer = 7;
  ck.objective = 0.1234567890123456789;
  ck.w = {1.0 / 3.0, -2.718281828459045, 0.0, 1e-300};
  const auto back = core::checkpoint_from_json(core::to_json(ck));
  EXPECT_EQ(back.outer, ck.outer);
  EXPECT_EQ(back.objective, ck.objective);
  ASSERT_EQ(back.w.size(), ck.w.size());
  for (std::size_t i = 0; i < ck.w.size(); ++i) {
    EXPECT_EQ(back.w[i], ck.w[i]) << "at " << i;
  }
}

TEST(FaultCheckpoint, RejectsMalformedJson) {
  EXPECT_THROW(core::checkpoint_from_json("not json"), IoError);
  EXPECT_THROW(core::checkpoint_from_json("[1,2]"), IoError);
  EXPECT_THROW(core::checkpoint_from_json("{\"outer\": 1}"), IoError);
  EXPECT_THROW(
      core::checkpoint_from_json(
          "{\"outer\": -2, \"objective\": 1.0, \"w\": []}"),
      IoError);
  EXPECT_THROW(
      core::checkpoint_from_json(
          "{\"outer\": 1, \"objective\": 1.0, \"w\": [\"x\"]}"),
      IoError);
}

TEST(FaultCheckpoint, SaveLoadFile) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("rcf_fault_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "ck.json").string();
  core::PnCheckpoint ck;
  ck.outer = 3;
  ck.objective = 42.5;
  ck.w = {0.25, -0.5};
  core::save_checkpoint(path, ck);
  const auto back = core::load_checkpoint(path);
  EXPECT_EQ(back.outer, 3);
  EXPECT_EQ(back.w, ck.w);
  EXPECT_THROW(core::load_checkpoint((dir / "missing.json").string()),
               IoError);
  std::filesystem::remove_all(dir);
}

TEST(FaultCheckpoint, PnAbortThenResumeIsBitwise) {
  data::Dataset storage;
  const auto problem = small_problem(storage);
  core::PnOptions opts;
  opts.max_outer = 6;
  opts.inner_iters = 8;
  opts.inner = core::PnInnerSolver::kRcSfista;
  opts.k = 2;
  opts.hessian_sampling_rate = 0.3;
  opts.track_history = false;

  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
  const auto baseline = core::solve_proximal_newton(problem, opts);
  ASSERT_TRUE(baseline.ok());

  core::PnCheckpoint last;
  opts.checkpoint_sink = [&last](const core::PnCheckpoint& ck) { last = ck; };
  core::SolveResult interrupted;
  {
    fault::ScopedFaultPlan scoped{
        std::string_view("abort:at=pn.outer,index=4")};
    interrupted = core::solve_proximal_newton(problem, opts);
  }
  EXPECT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.iterations, 3);
  ASSERT_EQ(last.outer, 3);

  opts.checkpoint_sink = nullptr;
  opts.resume_from = &last;
  const auto resumed = core::solve_proximal_newton(problem, opts);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(la::max_abs_diff(resumed.w.span(), baseline.w.span()), 0.0);
  EXPECT_EQ(resumed.objective, baseline.objective);
}

TEST(FaultCheckpoint, LogisticPnAbortThenResumeIsBitwise) {
  // Logistic PN runs the least-squares PN code, so it checkpoints and
  // resumes too.
  data::SyntheticOptions gen;
  gen.num_samples = 300;
  gen.num_features = 12;
  gen.density = 0.5;
  gen.binary_labels = true;
  gen.noise_stddev = 0.3;
  gen.seed = 5;
  const data::Dataset dataset = data::make_regression(gen);
  const core::LogisticProblem problem(dataset, 0.01);
  core::PnOptions opts;
  opts.max_outer = 6;
  opts.inner_iters = 8;
  opts.inner = core::PnInnerSolver::kRcSfista;
  opts.k = 2;
  opts.hessian_sampling_rate = 0.3;
  opts.track_history = false;

  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
  const auto baseline = core::solve_logistic_prox_newton(problem, opts);
  ASSERT_TRUE(baseline.ok()) << baseline.failure_reason;

  core::PnCheckpoint last;
  opts.checkpoint_sink = [&last](const core::PnCheckpoint& ck) { last = ck; };
  core::SolveResult interrupted;
  {
    fault::ScopedFaultPlan scoped{
        std::string_view("abort:at=pn.outer,index=4")};
    interrupted = core::solve_logistic_prox_newton(problem, opts);
  }
  EXPECT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.iterations, 3);
  ASSERT_EQ(last.outer, 3);

  opts.checkpoint_sink = nullptr;
  opts.resume_from = &last;
  const auto resumed = core::solve_logistic_prox_newton(problem, opts);
  ASSERT_TRUE(resumed.ok()) << resumed.failure_reason;
  EXPECT_EQ(la::max_abs_diff(resumed.w.span(), baseline.w.span()), 0.0);
  EXPECT_EQ(resumed.objective, baseline.objective);
}

TEST(FaultResilience, PnRetriesTransientChunkReduction) {
  // PN's RC-SFISTA inner chunks reduce through the engine's 1-rank world,
  // so a transient fault on one of them is retried and changes no bit.
  data::Dataset storage;
  const auto problem = small_problem(storage);
  core::PnOptions opts;
  opts.max_outer = 3;
  opts.inner_iters = 8;
  opts.inner = core::PnInnerSolver::kRcSfista;
  opts.k = 2;
  opts.hessian_sampling_rate = 0.3;
  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
  const auto baseline = core::solve_proximal_newton(problem, opts);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline.comm_stats.retries, 0u);

  fault::ScopedFaultPlan scoped{std::string_view("transient:rank=0,call=2")};
  const auto result = core::solve_proximal_newton(problem, opts);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_EQ(la::max_abs_diff(result.w.span(), baseline.w.span()), 0.0);
  EXPECT_EQ(result.comm_stats.retries, 1u);
  EXPECT_EQ(result.comm_stats.faults_injected, 1u);
}

TEST(FaultResilience, PnPoisonRecomputesThroughChunkDispatch) {
  // At width 4 and k = 4 each inner chunk is one pool dispatch, so the
  // poison guard's recompute rebuilds the chunk through the pool: the
  // iterate stays the fault-free one, and the ledger (recompute included)
  // is the width-1 ledger of the same plan.
  data::Dataset storage;
  const auto problem = small_problem(storage);
  core::PnOptions opts;
  opts.max_outer = 3;
  opts.inner_iters = 8;
  opts.inner = core::PnInnerSolver::kRcSfista;
  opts.k = 4;
  opts.hessian_sampling_rate = 0.3;
  opts.track_history = false;
  const auto solve = [&](int threads) {
    core::PnOptions o = opts;
    o.threads = threads;
    return core::solve_proximal_newton(problem, o);
  };
  core::SolveResult baseline;
  {
    fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
    baseline = solve(1);
  }
  ASSERT_TRUE(baseline.ok());

  fault::ScopedFaultPlan scoped{std::string_view("nan:rank=0,call=2,words=3")};
  const auto narrow = solve(1);
  const auto wide = solve(4);
  ASSERT_TRUE(narrow.ok()) << narrow.failure_reason;
  ASSERT_TRUE(wide.ok()) << wide.failure_reason;
  EXPECT_EQ(wide.comm_stats.faults_injected, 1u);
  EXPECT_EQ(wide.w.raw(), baseline.w.raw());
  EXPECT_EQ(wide.sim_seconds, narrow.sim_seconds);
  EXPECT_NE(wide.sim_seconds, baseline.sim_seconds);  // the recompute's cost
}

TEST(FaultCheckpoint, PnResumeRejectsDimensionMismatch) {
  data::Dataset storage;
  const auto problem = small_problem(storage);
  core::PnOptions opts;
  opts.max_outer = 3;
  opts.inner_iters = 4;
  core::PnCheckpoint bad;
  bad.outer = 1;
  bad.w = {1.0};  // problem dim is 12
  opts.resume_from = &bad;
  EXPECT_THROW(core::solve_proximal_newton(problem, opts), Error);
}

}  // namespace
}  // namespace rcf
