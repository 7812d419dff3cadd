// Tests for the intra-rank execution layer (src/exec): partitioning,
// pool lifecycle, exception propagation, and -- the load-bearing property --
// the determinism contract: every pooled kernel and the full solvers produce
// BIT-IDENTICAL results at pool widths 1, 2, 7, with width 1 being exactly
// the sequential code path.  Suites are named ExecPool* so the CI TSan job
// can select them with -R ExecPool.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "core/prox_newton.hpp"
#include "core/solvers.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "exec/pool.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"
#include "sparse/generate.hpp"
#include "sparse/gram.hpp"

namespace rcf {
namespace {

// ---------------------------------------------------------------------------
// Partitioning.
// ---------------------------------------------------------------------------

TEST(ExecPool, BlockRangeCoversDisjointly) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (const int parts : {1, 2, 3, 7, 16}) {
      std::size_t expect_begin = 0;
      std::size_t min_size = n, max_size = 0;
      for (int t = 0; t < parts; ++t) {
        const exec::Range r = exec::block_range(n, parts, t);
        EXPECT_EQ(r.begin, expect_begin) << "n=" << n << " parts=" << parts;
        expect_begin = r.end;
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      EXPECT_EQ(expect_begin, n);
      // Balanced: sizes differ by at most one.
      EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(ExecPool, TriangleRangeCoversDisjointly) {
  for (const std::size_t n : {0u, 1u, 5u, 64u, 257u}) {
    for (const int parts : {1, 2, 3, 7, 16}) {
      std::size_t expect_begin = 0;
      for (int t = 0; t < parts; ++t) {
        const exec::Range r = exec::triangle_range(n, parts, t);
        EXPECT_EQ(r.begin, expect_begin) << "n=" << n << " parts=" << parts;
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, n) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(ExecPool, TriangleRangeBalancesArea) {
  // Row i of an upper-triangle loop carries n - i units; each of the parts
  // should carry roughly total/parts.
  const std::size_t n = 1000;
  const int parts = 4;
  const double total = 0.5 * static_cast<double>(n) * (n + 1);
  for (int t = 0; t < parts; ++t) {
    const exec::Range r = exec::triangle_range(n, parts, t);
    double area = 0;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      area += static_cast<double>(n - i);
    }
    EXPECT_NEAR(area, total / parts, total * 0.02)
        << "part " << t << " of " << parts;
  }
}

// ---------------------------------------------------------------------------
// Pool lifecycle and dispatch.
// ---------------------------------------------------------------------------

TEST(ExecPool, RunExecutesEveryTaskIndexOnce) {
  exec::Pool pool(4);
  EXPECT_EQ(pool.width(), 4);
  std::vector<int> hits(4, 0);
  pool.run("test.run", [&](int t) { ++hits[static_cast<std::size_t>(t)]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));
  // Reusable: a second dispatch behaves identically.
  pool.run(nullptr, [&](int t) { ++hits[static_cast<std::size_t>(t)]; });
  EXPECT_EQ(hits, (std::vector<int>{2, 2, 2, 2}));
}

TEST(ExecPool, WidthOneRunsInline) {
  exec::Pool pool(1);
  int calls = 0;
  pool.run("test.inline", [&](int t) {
    EXPECT_EQ(t, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ExecPool, RejectsNonPositiveWidth) {
  EXPECT_THROW(exec::Pool pool(0), InvalidArgument);
  EXPECT_THROW(exec::Pool pool(-2), InvalidArgument);
}

TEST(ExecPool, ResolveWidth) {
  EXPECT_EQ(exec::Pool::resolve_width(1, 1), 1);
  EXPECT_EQ(exec::Pool::resolve_width(7, 4), 7);  // explicit wins over ranks
  // 0 = auto: hardware / ranks, at least 1 even when ranks > hardware.
  EXPECT_GE(exec::Pool::resolve_width(0, 1), 1);
  EXPECT_EQ(exec::Pool::resolve_width(0, 1 << 20), 1);
  EXPECT_THROW(static_cast<void>(exec::Pool::resolve_width(-1, 1)),
               InvalidArgument);
}

TEST(ExecPool, ThreadsFromEnv) {
  ::setenv("RCF_THREADS", "5", 1);
  EXPECT_EQ(exec::threads_from_env(1), 5);
  ::setenv("RCF_THREADS", "0", 1);
  EXPECT_EQ(exec::threads_from_env(3), 0);
  ::setenv("RCF_THREADS", "garbage", 1);
  EXPECT_EQ(exec::threads_from_env(3), 3);
  ::unsetenv("RCF_THREADS");
  EXPECT_EQ(exec::threads_from_env(2), 2);
}

TEST(ExecPool, AmbientPoolGuardNestsAndRestores) {
  EXPECT_EQ(exec::current_pool(), nullptr);
  exec::Pool outer(2), inner(3);
  {
    exec::PoolGuard g1(&outer);
    EXPECT_EQ(exec::current_pool(), &outer);
    {
      exec::PoolGuard g2(&inner);
      EXPECT_EQ(exec::current_pool(), &inner);
    }
    EXPECT_EQ(exec::current_pool(), &outer);
  }
  EXPECT_EQ(exec::current_pool(), nullptr);
}

TEST(ExecPool, WorkersSeeNoAmbientPool) {
  // Nested dispatch from a worker must degrade to inline, not deadlock.
  exec::Pool pool(3);
  exec::PoolGuard guard(&pool);
  std::vector<int> nested(3, -1);
  pool.run("test.outer", [&](int t) {
    nested[static_cast<std::size_t>(t)] =
        exec::current_pool() == nullptr ? 1 : 0;
  });
  // Thread 0 is the submitter and keeps its ambient pool; workers see none.
  EXPECT_EQ(nested[0], 0);
  EXPECT_EQ(nested[1], 1);
  EXPECT_EQ(nested[2], 1);
}

TEST(ExecPool, ExceptionPropagatesOutOfRun) {
  exec::Pool pool(3);
  EXPECT_THROW(pool.run("test.throw",
                        [](int t) {
                          if (t == 2) {
                            throw std::runtime_error("boom");
                          }
                        }),
               std::runtime_error);
  // The pool survives a throwing dispatch and runs the next one cleanly.
  std::vector<int> hits(3, 0);
  pool.run("test.recover",
           [&](int t) { ++hits[static_cast<std::size_t>(t)]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

// ---------------------------------------------------------------------------
// Kernel bit-identity across pool widths.  Every problem size sits above
// exec::kParallelWorkCutoff so the width > 1 runs genuinely dispatch.
// ---------------------------------------------------------------------------

sparse::CsrMatrix kernel_matrix(std::size_t rows, std::size_t cols,
                                double density) {
  sparse::GenerateOptions gen;
  gen.rows = rows;
  gen.cols = cols;
  gen.density = density;
  gen.seed = 17;
  return sparse::generate_random(gen);
}

la::Matrix dense_matrix(std::size_t rows, std::size_t cols,
                        std::uint64_t salt) {
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = std::sin(0.7 * static_cast<double>(i * cols + j) +
                         static_cast<double>(salt));
    }
  }
  return m;
}

std::vector<double> dense_vector(std::size_t n, std::uint64_t salt) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::cos(1.3 * static_cast<double>(i) + static_cast<double>(salt));
  }
  return v;
}

/// Runs `kernel` with no pool (sequential reference), then under pools of
/// width 2 and 7, asserting the produced doubles are bit-identical.
template <typename Kernel>
void expect_bit_identical(const Kernel& kernel) {
  const std::vector<double> reference = kernel();
  for (const int width : {1, 2, 7}) {
    exec::Pool pool(width);
    exec::PoolGuard guard(&pool);
    const std::vector<double> pooled = kernel();
    ASSERT_EQ(pooled.size(), reference.size());
    EXPECT_EQ(pooled, reference) << "pool width " << width;
  }
}

TEST(ExecPoolKernels, SampledGramBitIdenticalAcrossWidths) {
  const auto xt = kernel_matrix(600, 48, 0.8);
  const auto y = dense_vector(600, 1);
  Rng rng(9, 0);
  const auto idx = rng.sample_without_replacement(600, 300);
  std::uint64_t reference_flops = 0;
  expect_bit_identical([&] {
    la::Matrix h(48, 48);
    std::vector<double> r(48, 0.0);
    const std::uint64_t flops =
        sparse::sampled_gram(xt, y, idx, h, r);
    if (reference_flops == 0) {
      reference_flops = flops;
    }
    EXPECT_EQ(flops, reference_flops);  // flop accounting is width-invariant
    std::vector<double> out(h.flat().begin(), h.flat().end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  });
}

TEST(ExecPoolKernels, WeightedGramBitIdenticalAcrossWidths) {
  const auto xt = kernel_matrix(600, 48, 0.8);
  const auto weights = dense_vector(600, 2);
  const auto y = dense_vector(600, 3);
  Rng rng(9, 1);
  const auto idx = rng.sample_without_replacement(600, 300);
  expect_bit_identical([&] {
    la::Matrix h(48, 48);
    std::vector<double> r(48, 0.0);
    sparse::accumulate_sampled_gram(xt, y, idx, 1.0 / 300.0, h, r, weights);
    std::vector<double> out(h.flat().begin(), h.flat().end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  });
}

TEST(ExecPoolKernels, SpmvBitIdenticalAcrossWidths) {
  const auto a = kernel_matrix(4000, 256, 0.2);
  const auto x = dense_vector(256, 3);
  const auto xt_in = dense_vector(4000, 4);
  expect_bit_identical([&] {
    std::vector<double> y(4000), yt(256);
    a.spmv(x, y);
    a.spmv_t(xt_in, yt);
    y.insert(y.end(), yt.begin(), yt.end());
    return y;
  });
}

TEST(ExecPoolKernels, Blas2BitIdenticalAcrossWidths) {
  const auto h = dense_matrix(256, 256, 6);
  const auto x = dense_vector(256, 7);
  expect_bit_identical([&] {
    std::vector<double> y = dense_vector(256, 8);
    la::gemv(1.25, h, x, 0.5, y);
    return y;
  });
}

TEST(ExecPoolKernels, SymmetrizeBitIdenticalAcrossWidths) {
  // n = 300 puts n^2 / 2 above the dispatch cutoff: the pooled mirror the
  // engine runs on every sampled block at mnist/epsilon widths.
  const auto upper = dense_matrix(300, 300, 12);
  expect_bit_identical([&] {
    la::Matrix c = upper;
    la::symmetrize_from_upper(c);
    return std::vector<double>(c.flat().begin(), c.flat().end());
  });
}

// ---------------------------------------------------------------------------
// Solver-level bit-identity: the acceptance property of the execution
// layer.  threads = 1 is literally the sequential path, so equality with
// the width-2 and width-7 runs proves the whole solve is width-invariant.
// ---------------------------------------------------------------------------

/// The cost ledger must be width-invariant too: the modeled time and every
/// history record's counters, bitwise.
void expect_same_ledger(const core::SolveResult& result,
                        const core::SolveResult& ref, int threads) {
  const std::string at = result.solver + " threads=" + std::to_string(threads);
  EXPECT_EQ(result.sim_seconds, ref.sim_seconds) << at;
  ASSERT_EQ(result.history.size(), ref.history.size()) << at;
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    const auto& got = result.history[i];
    const auto& want = ref.history[i];
    EXPECT_EQ(got.sim_seconds, want.sim_seconds) << at << " record " << i;
    EXPECT_EQ(got.raw_gram_flops, want.raw_gram_flops) << at << " record " << i;
    EXPECT_EQ(got.comm_rounds, want.comm_rounds) << at << " record " << i;
    EXPECT_EQ(got.comm_payload_words, want.comm_payload_words)
        << at << " record " << i;
  }
}

data::Dataset solver_dataset() {
  data::SyntheticOptions gen;
  gen.num_samples = 1600;
  gen.num_features = 64;
  gen.density = 0.9;  // keeps the per-rank Gram above the dispatch cutoff
  gen.condition = 20.0;
  gen.noise_stddev = 0.05;
  gen.seed = 23;
  return data::make_regression(gen);
}

TEST(ExecPoolSolver, SequentialEngineBitIdenticalAcrossWidths) {
  const auto dataset = solver_dataset();
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.max_iters = 32;
  opts.sampling_rate = 0.25;
  opts.k = 4;
  opts.s = 2;
  const auto run = [&](int threads) {
    core::SolverOptions o = opts;
    o.threads = threads;
    return core::solve_rc_sfista(problem, o);
  };
  const auto ref = run(1);
  for (const int threads : {2, 7}) {
    const auto result = run(threads);
    EXPECT_EQ(result.w.raw(), ref.w.raw()) << "threads=" << threads;
    EXPECT_EQ(result.objective, ref.objective) << "threads=" << threads;
    expect_same_ledger(result, ref, threads);
  }
}

TEST(ExecPoolSolver, OneDispatchPerChunk) {
  // A sampled chunk of k >= width blocks is built by one pool dispatch, not
  // one per block: 16 more iterations at k = 4 are 4 more dispatches.
  const auto dataset = solver_dataset();
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.sampling_rate = 0.25;
  opts.k = 4;
  opts.threads = 2;
  opts.track_history = false;
  obs::Counter& dispatches =
      obs::MetricsRegistry::global().counter("exec.dispatches");
  const auto dispatches_of = [&](int iters) {
    core::SolverOptions o = opts;
    o.max_iters = iters;
    const std::uint64_t before = dispatches.value();
    EXPECT_TRUE(core::solve_rc_sfista(problem, o).ok());
    return dispatches.value() - before;
  };
  EXPECT_EQ(dispatches_of(32) - dispatches_of(16), 4u);
}

TEST(ExecPoolSolver, FourRanksBitIdenticalAcrossPoolWidths) {
  // 4 SPMD ranks x {1, 2, 7} pool threads: the full RC-SFISTA solve must
  // produce bit-identical iterates, and they must equal the sequential
  // engine's (existing DistributedAgreement guarantee, now at any width).
  const auto dataset = solver_dataset();
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.max_iters = 24;
  opts.sampling_rate = 0.25;
  opts.k = 4;
  opts.track_history = false;
  const auto run = [&](int threads) {
    core::SolverOptions o = opts;
    o.threads = threads;
    dist::ThreadGroup group(4);
    return core::solve_rc_sfista_distributed(problem, o, group);
  };
  const auto ref = run(1);
  for (const int threads : {2, 7}) {
    const auto result = run(threads);
    EXPECT_EQ(result.w.raw(), ref.w.raw()) << "threads=" << threads;
  }
  const auto seq = core::solve_rc_sfista(problem, opts);
  EXPECT_LT(la::max_abs_diff(seq.w.span(), ref.w.span()), 1e-10);
}

TEST(ExecPoolSolver, ProxNewtonBitIdenticalAcrossWidths) {
  // Both inner solvers.  RC-SFISTA at k = 4 over 11 inner iterations: full
  // chunks take the per-chunk dispatch at widths 2-4, the short last chunk
  // of 3 the row-range Gram at width 4, and width 7 takes the row-range
  // Gram throughout.
  const auto dataset = solver_dataset();
  const core::LassoProblem problem(dataset, 0.005);
  core::PnOptions opts;
  opts.max_outer = 4;
  opts.inner_iters = 11;
  opts.hessian_sampling_rate = 0.25;
  for (const auto inner :
       {core::PnInnerSolver::kFista, core::PnInnerSolver::kRcSfista}) {
    const auto run = [&](int threads) {
      core::PnOptions o = opts;
      o.inner = inner;
      o.k = inner == core::PnInnerSolver::kRcSfista ? 4 : 1;
      o.threads = threads;
      return core::solve_proximal_newton(problem, o);
    };
    const auto ref = run(1);
    for (const int threads : {2, 3, 4, 7}) {
      const auto result = run(threads);
      EXPECT_EQ(result.w.raw(), ref.w.raw())
          << result.solver << " threads=" << threads;
      expect_same_ledger(result, ref, threads);
    }
  }
}

TEST(ExecPoolSolver, RejectsNegativeThreads) {
  const auto dataset = solver_dataset();
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.threads = -1;
  EXPECT_THROW(core::solve_rc_sfista(problem, opts), InvalidArgument);
}

}  // namespace
}  // namespace rcf
