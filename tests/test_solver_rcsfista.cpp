// Tests for RC-SFISTA: the k-invariance identity (Fig. 2b), Hessian-reuse
// behaviour (Fig. 3), communication accounting (Table 1), and agreement of
// the genuinely distributed SPMD execution with the sequential engine --
// the same loop at every P, checked option by option and as a seeded
// property.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "la/backend.hpp"
#include "la/blas.hpp"
#include "obs/trace.hpp"
#include "sparse/gram.hpp"
#include "prop.hpp"

namespace rcf::core {
namespace {

data::Dataset test_dataset(std::size_t m = 1200, std::size_t d = 32,
                           double condition = 30.0, std::uint64_t seed = 13) {
  data::SyntheticOptions opts;
  opts.num_samples = m;
  opts.num_features = d;
  opts.density = 0.4;
  opts.condition = condition;
  opts.noise_stddev = 0.05;
  opts.seed = seed;
  return data::make_regression(opts);
}

class RcSfistaTest : public ::testing::Test {
 protected:
  RcSfistaTest() : dataset_(test_dataset()), problem_(dataset_, 0.005) {}

  data::Dataset dataset_;
  LassoProblem problem_;
};

// ---------------------------------------------------------------------------
// The Fig. 2(b) identity: k is a schedule, not an algorithm change.
// ---------------------------------------------------------------------------

class OverlapInvariance : public ::testing::TestWithParam<int> {};

TEST_P(OverlapInvariance, IteratesAreBitwiseIdenticalToK1) {
  const auto dataset = test_dataset();
  const LassoProblem problem(dataset, 0.005);
  SolverOptions base;
  base.max_iters = 96;
  base.sampling_rate = 0.1;
  base.seed = 42;

  SolverOptions k1 = base;
  k1.k = 1;
  const auto ref = solve_rc_sfista(problem, k1);

  SolverOptions kx = base;
  kx.k = GetParam();
  const auto run = solve_rc_sfista(problem, kx);

  EXPECT_EQ(ref.w, run.w) << "k = " << GetParam();
  EXPECT_EQ(ref.objective, run.objective);
}

INSTANTIATE_TEST_SUITE_P(KSweep, OverlapInvariance,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 96, 128));

TEST_F(RcSfistaTest, OverlapInvarianceHoldsWithHessianReuse) {
  SolverOptions base;
  base.max_iters = 60;
  base.sampling_rate = 0.1;
  base.s = 4;
  base.k = 1;
  const auto a = solve_rc_sfista(problem_, base);
  base.k = 8;
  const auto b = solve_rc_sfista(problem_, base);
  EXPECT_EQ(a.w, b.w);
}

TEST_F(RcSfistaTest, PartialFinalBlockHandled) {
  // max_iters not a multiple of k: the last block is short.
  SolverOptions opts;
  opts.max_iters = 50;
  opts.sampling_rate = 0.1;
  opts.k = 8;
  const auto run = solve_rc_sfista(problem_, opts);
  EXPECT_EQ(run.iterations, 50);
  opts.k = 1;
  const auto ref = solve_rc_sfista(problem_, opts);
  EXPECT_EQ(ref.w, run.w);
}

// ---------------------------------------------------------------------------
// Communication accounting (Table 1 structure).
// ---------------------------------------------------------------------------

TEST_F(RcSfistaTest, LatencyFallsAsOneOverK) {
  SolverOptions opts;
  opts.max_iters = 64;
  opts.sampling_rate = 0.1;
  opts.procs = 16;  // log2 = 4 messages per round
  opts.k = 1;
  const auto k1 = solve_rc_sfista(problem_, opts);
  opts.k = 8;
  const auto k8 = solve_rc_sfista(problem_, opts);
  EXPECT_DOUBLE_EQ(k1.cost.messages(), 64.0 * 4.0);
  EXPECT_DOUBLE_EQ(k8.cost.messages(), 8.0 * 4.0);
  // Bandwidth identical (the headline claim).
  EXPECT_DOUBLE_EQ(k1.cost.words(), k8.cost.words());
  // Gram flops identical.
  EXPECT_DOUBLE_EQ(k1.cost.flops(model::Phase::kGram),
                   k8.cost.flops(model::Phase::kGram));
}

TEST_F(RcSfistaTest, CommRoundsAreCeilNOverK) {
  SolverOptions opts;
  opts.max_iters = 50;
  opts.sampling_rate = 0.1;
  opts.k = 8;
  const auto run = solve_rc_sfista(problem_, opts);
  EXPECT_EQ(run.history.back().comm_rounds, 7u);  // ceil(50/8)
}

TEST_F(RcSfistaTest, HessianReuseAddsUpdateFlopsOnly) {
  SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.1;
  opts.s = 1;
  const auto s1 = solve_rc_sfista(problem_, opts);
  opts.s = 4;
  const auto s4 = solve_rc_sfista(problem_, opts);
  EXPECT_DOUBLE_EQ(s1.cost.flops(model::Phase::kGram),
                   s4.cost.flops(model::Phase::kGram));
  // Ratio is slightly below 4 because of the per-iteration O(d) overhead
  // outside the s-loop.
  EXPECT_NEAR(s4.cost.flops(model::Phase::kUpdate) /
                  s1.cost.flops(model::Phase::kUpdate),
              4.0, 0.4);
  EXPECT_DOUBLE_EQ(s1.cost.words(), s4.cost.words());
}

TEST_F(RcSfistaTest, CacheSpillChargesMemoryTraffic) {
  SolverOptions opts;
  opts.max_iters = 16;
  opts.sampling_rate = 0.1;
  opts.k = 8;
  opts.machine.cache_doubles = 10.0;  // force a spill
  const auto spilled = solve_rc_sfista(problem_, opts);
  EXPECT_GT(spilled.cost.mem_words(), 0.0);
  opts.machine.cache_doubles = 1e12;
  const auto cached = solve_rc_sfista(problem_, opts);
  EXPECT_DOUBLE_EQ(cached.cost.mem_words(), 0.0);
  EXPECT_GT(spilled.sim_seconds, cached.sim_seconds);
}

TEST_F(RcSfistaTest, PerRankGramCriticalPathScalesDown) {
  SolverOptions opts;
  opts.max_iters = 30;
  opts.sampling_rate = 0.2;
  opts.procs = 1;
  const auto p1 = solve_rc_sfista(problem_, opts);
  opts.procs = 8;
  const auto p8 = solve_rc_sfista(problem_, opts);
  const double ratio = p1.cost.flops(model::Phase::kGram) /
                       p8.cost.flops(model::Phase::kGram);
  // Per-rank max of a balanced partition: close to 8x less, never more.
  EXPECT_GT(ratio, 4.0);
  EXPECT_LE(ratio, 8.0 + 1e-9);
}

TEST_F(RcSfistaTest, GramFlopTailsSumToTheSampledSetsFlops) {
  // A block's tail splits the Gram flops of its one sample set among the
  // modeled ranks' rows.  On the blocking path every chunk is charged
  // before its updates, so the last history record's raw_gram_flops is the
  // full sets' total at every procs, and on every real rank count.
  SolverOptions opts;
  opts.max_iters = 30;
  opts.k = 4;
  opts.sampling_rate = 0.2;
  const std::size_t m = dataset_.num_samples();
  const SplitTreeSampler sampler(m, m / 5);
  double total = 0.0;
  for (int n = 0; n < opts.max_iters; ++n) {
    total += static_cast<double>(sparse::sampled_gram_flops(
        dataset_.xt, sampler.sample(opts.seed, static_cast<std::uint64_t>(n))));
  }
  for (const int procs : {1, 3, 8}) {
    opts.procs = procs;
    const auto seq = solve_rc_sfista(problem_, opts);
    ASSERT_EQ(seq.history.size(), 30u);
    EXPECT_EQ(seq.history.back().raw_gram_flops, total) << "procs=" << procs;
  }
  opts.procs = 1;
  dist::ThreadGroup group(3);
  const auto par = solve_rc_sfista_distributed(problem_, opts, group);
  ASSERT_TRUE(par.ok()) << par.failure_reason;
  ASSERT_EQ(par.history.size(), 30u);
  EXPECT_EQ(par.history.back().raw_gram_flops, total);
}

// ---------------------------------------------------------------------------
// Hessian-reuse improves per-iteration progress (Fig. 3 direction).
// ---------------------------------------------------------------------------

TEST_F(RcSfistaTest, ModerateSImprovesProgress) {
  // The Fig. 3 shape on a covtype-like clone: S = 3 clearly beats S = 1 at
  // the same number of communicated blocks, while S = 10 with a small batch
  // over-solves the stale sampled model and falls behind S = 3.
  const auto ds = data::make_paper_clone("covtype", 0.02);
  const LassoProblem problem(ds, 0.01 * LassoProblem(ds, 0.0).lambda_max());
  const auto ref = solve_reference(problem);
  SolverOptions opts;
  opts.max_iters = 120;
  opts.sampling_rate = 0.05;
  opts.variance_reduction = true;
  opts.f_star = ref.objective;
  auto run = [&](int s) {
    SolverOptions o = opts;
    o.s = s;
    return solve_rc_sfista(problem, o).history.back().rel_error;
  };
  const double e1 = run(1), e3 = run(3), e10 = run(10);
  EXPECT_LT(e3, e1);
  EXPECT_GT(e10, e3);
}

// ---------------------------------------------------------------------------
// Distributed (threaded SPMD) execution agrees with the sequential engine.
// ---------------------------------------------------------------------------

class DistributedAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DistributedAgreement, MatchesSequentialEngine) {
  const auto [ranks, k, s] = GetParam();
  const auto dataset = test_dataset(600, 24);
  const LassoProblem problem(dataset, 0.01);
  SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.2;
  opts.k = k;
  opts.s = s;
  opts.track_history = false;

  const auto seq = solve_rc_sfista(problem, opts);
  dist::ThreadGroup group(ranks);
  const auto par = solve_rc_sfista_distributed(problem, opts, group);

  EXPECT_LT(la::max_abs_diff(seq.w.span(), par.w.span()), 1e-10)
      << "ranks=" << ranks << " k=" << k << " s=" << s;
  // Allreduce rounds: ceil(N/k) per rank.
  const auto rounds = (40 + k - 1) / k;
  EXPECT_EQ(par.comm_stats.allreduce_calls,
            static_cast<std::uint64_t>(rounds * ranks));
  // Largest single payload: one full [H|R] block batch, d = 24, each block
  // with its tail of one Gram flop count per rank.
  EXPECT_EQ(par.comm_stats.max_payload_words,
            static_cast<std::uint64_t>(std::min(k, 40)) *
                (24u * 24u + 24u + static_cast<std::uint64_t>(ranks)));
  // The phase summary mirrors the schedule: both paths report the same
  // allreduce round count (counts are maintained even when tracing is off).
  const auto* seq_ar = obs::find_phase(seq.phases, "allreduce");
  const auto* par_ar = obs::find_phase(par.phases, "allreduce");
  ASSERT_NE(seq_ar, nullptr);
  ASSERT_NE(par_ar, nullptr);
  EXPECT_EQ(seq_ar->count, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(par_ar->count, static_cast<std::uint64_t>(rounds));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistributedAgreement,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 1, 1},
                      std::tuple{2, 4, 1}, std::tuple{3, 4, 1},
                      std::tuple{4, 8, 1}, std::tuple{4, 4, 3},
                      std::tuple{2, 16, 2}));

TEST_F(RcSfistaTest, DistributedVarianceReductionAgrees) {
  // The VR anchor is each rank's partial full gradient plus one d-word
  // allreduce, so the SPMD solve tracks the sequential one.
  SolverOptions opts;
  opts.max_iters = 60;
  opts.sampling_rate = 0.1;
  opts.k = 4;
  opts.s = 2;
  opts.variance_reduction = true;
  opts.epoch_length = 10;
  opts.track_history = false;
  const auto seq = solve_rc_sfista(problem_, opts);
  dist::ThreadGroup group(3);
  const auto par = solve_rc_sfista_distributed(problem_, opts, group);
  ASSERT_TRUE(par.ok()) << par.failure_reason;
  EXPECT_LT(la::max_abs_diff(seq.w.span(), par.w.span()), 1e-9);
  // ceil(60/4) = 15 chunk rounds plus 5 anchor refreshes (iteration 0,
  // then every chunk boundary at least 10 iterations past the last).
  EXPECT_EQ(par.comm_stats.allreduce_calls, 3u * (15u + 5u));
}

TEST_F(RcSfistaTest, DistributedVarianceReductionSendsHBlocksOnly) {
  // The VR update H (v - anchor) + anchor_grad never reads R, so a chunk
  // packs only the k d^2-word H blocks, each with its 3-word tail of Gram
  // flop counts; the anchor refreshes add d words.
  SolverOptions opts;
  opts.max_iters = 60;
  opts.sampling_rate = 0.1;
  opts.k = 4;
  opts.variance_reduction = true;
  opts.epoch_length = 10;
  opts.track_history = false;
  dist::ThreadGroup group(3);
  const auto par = solve_rc_sfista_distributed(problem_, opts, group);
  ASSERT_TRUE(par.ok()) << par.failure_reason;
  const std::uint64_t d = problem_.dim();
  // 15 chunks of k = 4 blocks, 5 anchor refreshes, per rank.
  EXPECT_EQ(par.comm_stats.allreduce_words,
            3u * (15u * 4u * (d * d + 3u) + 5u * d));
}

TEST_F(RcSfistaTest, DistributedRejectsMismatchedProcs) {
  // The cost ledger models P = the group size, so procs must be 1 or it.
  SolverOptions opts;
  opts.max_iters = 4;
  opts.procs = 3;
  dist::ThreadGroup group(2);
  EXPECT_THROW(solve_rc_sfista_distributed(problem_, opts, group),
               InvalidArgument);
  opts.procs = 2;
  EXPECT_TRUE(solve_rc_sfista_distributed(problem_, opts, group).ok());
}

// ---------------------------------------------------------------------------
// One engine: every SolverOptions field behaves the same at any P.
// ---------------------------------------------------------------------------

/// The golden fixtures' dataset (tests/test_golden.cpp).
data::Dataset golden_dataset() { return test_dataset(400, 16); }

TEST(SpmdEngine, TolStopsAtTheSequentialIteration) {
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  SolverOptions opts;
  opts.max_iters = 2000;
  opts.sampling_rate = 1.0;  // full batch: each rank builds [H|R] once
  opts.k = 4;
  opts.s = 2;
  opts.procs = 4;
  opts.tol = 1e-3;
  opts.f_star = solve_reference(problem).objective;
  const auto seq = solve_rc_sfista(problem, opts);
  dist::ThreadGroup group(4);
  const auto par = solve_rc_sfista_distributed(problem, opts, group);
  ASSERT_TRUE(seq.converged);
  ASSERT_LT(seq.iterations, opts.max_iters);
  EXPECT_TRUE(par.converged);
  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_LE(par.rel_error, 1.5 * opts.tol);
  // Rank 0 records the same history, and the ledger charges the same
  // Table 1 costs for the same modeled P.
  ASSERT_EQ(par.history.size(), seq.history.size());
  EXPECT_EQ(par.history.back().iteration, par.iterations);
  EXPECT_LE(par.history.back().rel_error, opts.tol);
  EXPECT_GT(par.sim_seconds, 0.0);
  EXPECT_EQ(par.sim_seconds, seq.sim_seconds);
  EXPECT_EQ(par.cost.messages(), seq.cost.messages());
}

/// The first ledger field in which `par` (rank 0 of a P-rank solve) differs
/// from `seq` (the 1-rank world at procs = P), or an empty string.
std::string ledger_mismatch(const SolveResult& seq, const SolveResult& par) {
  if (seq.sim_seconds != par.sim_seconds) {
    return "sim_seconds";
  }
  if (seq.history.size() != par.history.size()) {
    return "history size";
  }
  for (std::size_t i = 0; i < seq.history.size(); ++i) {
    const IterationRecord& a = seq.history[i];
    const IterationRecord& b = par.history[i];
    const std::string at = " at record " + std::to_string(i);
    if (a.sim_seconds != b.sim_seconds) {
      return "history sim_seconds" + at;
    }
    if (a.raw_gram_flops != b.raw_gram_flops) {
      return "raw_gram_flops" + at;
    }
    if (a.comm_rounds != b.comm_rounds) {
      return "comm_rounds" + at;
    }
    if (a.comm_payload_words != b.comm_payload_words) {
      return "comm_payload_words" + at;
    }
  }
  return "";
}

TEST(SpmdProperty, MatchesSequentialEngine) {
  // Seeded (m, d, P, k, S, b, pipeline/staleness, threads, backend, VR)
  // tuples; a failure prints a replayable case.  m < P leaves some ranks
  // without rows.  Both sides model P ranks, so rank 0's cost ledger must
  // equal the 1-rank world's bit for bit.
  prop::for_all("spmd == sequential", 20261017, 40, [&](prop::Gen& g) {
    data::SyntheticOptions data_opts;
    data_opts.num_samples = g.index(4) == 0 ? g.size(1, 4) : g.size(5, 300);
    data_opts.num_features = g.size(1, 24);
    data_opts.density = 0.5;
    data_opts.condition = 10.0;
    data_opts.noise_stddev = 0.05;
    data_opts.seed = g.seed();
    const auto dataset = data::make_regression(data_opts);
    const LassoProblem problem(dataset, 0.01);
    const int ranks = 1 + static_cast<int>(g.index(5));
    SolverOptions opts;
    opts.max_iters = static_cast<int>(g.size(1, 24));
    opts.k = static_cast<int>(g.size(1, 8));
    opts.s = static_cast<int>(g.size(1, 3));
    opts.sampling_rate = g.index(4) == 0 ? 1.0 : g.real(0.05, 1.0);
    opts.pipeline = g.index(2) == 0;
    opts.staleness = opts.pipeline ? static_cast<int>(g.index(3)) : 0;
    opts.threads = 1 + static_cast<int>(g.index(3));
    opts.variance_reduction = g.index(3) == 0;
    // epoch_length is drawn on every case, so the draws that follow do not
    // shift, but set only where VR reads it.
    const int epoch_length = static_cast<int>(g.size(1, 10));
    if (opts.variance_reduction) {
      opts.epoch_length = epoch_length;
    }
    // Two draws no axis reads: dropping them would shift every later draw
    // and so change the 40 seeded cases.
    static_cast<void>(g.index(2));
    static_cast<void>(g.index(2));
    opts.seed = g.seed();
    opts.procs = ranks;  // consumes no draw, so no case shifts
    const la::ScopedBackend backend(g.index(2) == 0 ? la::Backend::kScalar
                                                    : la::Backend::kSimd);
    SolveResult seq;
    SolveResult par;
    try {
      seq = solve_rc_sfista(problem, opts);
      dist::ThreadGroup group(ranks);
      par = solve_rc_sfista_distributed(problem, opts, group);
    } catch (const std::exception& e) {
      return testing::AssertionFailure() << "threw: " << e.what();
    }
    const double diff = la::max_abs_diff(seq.w.span(), par.w.span());
    const bool bitwise = seq.w == par.w;
    const std::string ledger = ledger_mismatch(seq, par);
    if (!seq.ok() || !par.ok() || !(diff <= 1e-9) ||
        (ranks == 1 && !bitwise) || par.iterations != seq.iterations ||
        !ledger.empty()) {
      return testing::AssertionFailure()
             << "m=" << data_opts.num_samples << " d="
             << data_opts.num_features << " P=" << ranks
             << " k=" << opts.k << " S=" << opts.s
             << " b=" << opts.sampling_rate << " pipeline=" << opts.pipeline
             << " staleness=" << opts.staleness
             << " vr=" << opts.variance_reduction
             << " max|dw|=" << diff << " bitwise=" << bitwise
             << " seq.ok=" << seq.ok() << " par.ok=" << par.ok()
             << " ledger differs in: " << (ledger.empty() ? "-" : ledger);
    }
    return testing::AssertionSuccess();
  });
}

TEST_F(RcSfistaTest, RecursiveDoublingBackendAgrees) {
  SolverOptions opts;
  opts.max_iters = 24;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.track_history = false;
  const auto seq = solve_rc_sfista(problem_, opts);
  dist::ThreadGroup group(4, dist::AllreduceAlgo::kRecursiveDoubling);
  const auto par = solve_rc_sfista_distributed(problem_, opts, group);
  EXPECT_LT(la::max_abs_diff(seq.w.span(), par.w.span()), 1e-10);
}

}  // namespace
}  // namespace rcf::core
