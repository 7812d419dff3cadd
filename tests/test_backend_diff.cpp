// Differential kernel tests: scalar vs SIMD backend, over replayable
// seeded shapes (tests/prop.hpp generators: ragged dims, empty rows,
// 0-row/0-col/1x1 matrices, SIMD-aligned and off-by-one "unaligned
// leading dim" sizes, denormal and NaN/Inf payloads).
//
// Every kernel pair is held to two contracts (la/backend.hpp):
//
//  * Width invariance, bitwise, PER BACKEND: each backend must produce
//    bit-identical bytes at pool widths 1, 2 and 7 (the repo's core
//    determinism contract; compared with memcmp so NaN payloads count as
//    equal when their bit patterns are).
//  * Cross-backend agreement, to tolerance, on finite inputs: the SIMD
//    reductions (gemv/spmv row dots, dot) regroup terms into 4-lane
//    accumulators, so scalar and SIMD legitimately differ within rounding.
//    Denormal payloads are finite and stay inside this gate.
//
// NaN/Inf payloads are checked for width invariance only: the two backends
// group each sum differently, and which NaN payload survives (or whether a
// sum overflows) depends on the grouping, so cross-backend comparison on
// non-finite data is not part of the contract -- only that each backend
// propagates them deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "exec/pool.hpp"
#include "la/backend.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "prop.hpp"
#include "sparse/csr.hpp"
#include "sparse/gram.hpp"

namespace rcf {
namespace {

constexpr std::uint64_t kSeed = 20180813;  // ICPP'18 vintage.

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double linf(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) {
    if (std::isfinite(x)) {
      m = std::max(m, std::abs(x));
    }
  }
  return m;
}

/// Runs `compute` under both backends at pool widths 1/2/7, asserting the
/// bitwise width-invariance contract per backend; when `cross_tol` >= 0,
/// additionally asserts |scalar - simd|_inf <= cross_tol * (1 + |scalar|_inf).
testing::AssertionResult check_kernel(
    const char* what, const std::function<std::vector<double>()>& compute,
    double cross_tol) {
  const auto run = [&](la::Backend backend, int width) {
    la::ScopedBackend scoped(backend);
    exec::Pool pool(width);
    exec::PoolGuard guard(&pool);
    return compute();
  };
  std::vector<double> base[2];
  for (const la::Backend backend : {la::Backend::kScalar, la::Backend::kSimd}) {
    const auto idx = static_cast<std::size_t>(backend);
    base[idx] = run(backend, 1);
    for (const int width : {2, 7}) {
      const auto wide = run(backend, width);
      if (!bits_equal(base[idx], wide)) {
        return testing::AssertionFailure()
               << what << ": " << la::backend_name(backend) << " backend not "
               << "bitwise width-invariant (width " << width << " vs 1)";
      }
    }
  }
  if (cross_tol >= 0.0) {
    if (base[0].size() != base[1].size()) {
      return testing::AssertionFailure() << what << ": output size mismatch";
    }
    const double bound = cross_tol * (1.0 + linf(base[0]));
    for (std::size_t i = 0; i < base[0].size(); ++i) {
      const double diff = std::abs(base[0][i] - base[1][i]);
      if (!(diff <= bound)) {
        return testing::AssertionFailure()
               << what << ": scalar vs simd diverged at [" << i << "]: "
               << base[0][i] << " vs " << base[1][i] << " (bound " << bound
               << ")";
      }
    }
  }
  return testing::AssertionSuccess();
}

la::Matrix payload_matrix(prop::Gen& g, std::size_t rows, std::size_t cols,
                          prop::Payload p) {
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = prop::value(g, p);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Dense level-1/2 kernel pairs.
// ---------------------------------------------------------------------------

TEST(BackendDiff, Dot) {
  prop::for_all("dot scalar-vs-simd", kSeed, 40, [](prop::Gen& g) {
    const std::size_t n = prop::dim(g, 200);
    const auto x = g.vector(n), y = g.vector(n);
    return check_kernel(
        "dot",
        [&] { return std::vector<double>{la::dot(x, y)}; },
        1e-12);
  });
}

TEST(BackendDiff, Gemv) {
  prop::for_all("gemv scalar-vs-simd", kSeed, 40, [](prop::Gen& g) {
    const prop::Shape s = prop::shape(g, 48);
    const la::Matrix a = payload_matrix(g, s.rows, s.cols,
                                        prop::Payload::kNormal);
    const auto x = g.vector(s.cols);
    const double alpha = g.real(-2.0, 2.0), beta = g.real(-1.0, 1.0);
    const auto y0 = g.vector(s.rows);
    return check_kernel(
        "gemv",
        [&] {
          auto y = y0;
          la::gemv(alpha, a, x, beta, y);
          return y;
        },
        1e-12);
  });
}

// ---------------------------------------------------------------------------
// Sparse kernel pairs (ragged rows, empty rows, dense fast-path rows).
// ---------------------------------------------------------------------------

TEST(BackendDiff, Spmv) {
  prop::for_all("spmv scalar-vs-simd", kSeed, 40, [](prop::Gen& g) {
    const prop::Shape s = prop::shape(g, 48);
    const sparse::CsrMatrix a = prop::csr(g, s.rows, s.cols);
    const auto x = g.vector(s.cols);
    return check_kernel(
        "spmv",
        [&] {
          std::vector<double> y(s.rows);
          a.spmv(x, y);
          return y;
        },
        1e-12);
  });
}

TEST(BackendDiff, SpmvT) {
  prop::for_all("spmv_t scalar-vs-simd", kSeed, 40, [](prop::Gen& g) {
    const prop::Shape s = prop::shape(g, 48);
    const sparse::CsrMatrix a = prop::csr(g, s.rows, s.cols);
    const auto x = g.vector(s.rows);
    return check_kernel(
        "spmv_t",
        [&] {
          std::vector<double> y(s.cols);
          a.spmv_t(x, y);
          return y;
        },
        1e-12);
  });
}

TEST(BackendDiff, SampledGram) {
  prop::for_all("sampled_gram scalar-vs-simd", kSeed, 30, [](prop::Gen& g) {
    const std::size_t m = g.size(2, 48);
    const std::size_t d = prop::dim(g, 24, /*allow_empty=*/false);
    const sparse::CsrMatrix xt = prop::csr(g, m, d);
    const auto y = g.vector(m);
    const auto mbar = static_cast<std::uint64_t>(g.size(1, m));
    const auto idx = g.rng().sample_without_replacement(m, mbar);
    return check_kernel(
        "sampled_gram",
        [&] {
          la::Matrix h(d, d);
          std::vector<double> r(d);
          sparse::sampled_gram(xt, y, idx, h, r);
          std::vector<double> out(h.data(), h.data() + d * d);
          out.insert(out.end(), r.begin(), r.end());
          return out;
        },
        1e-11);
  });
}

// ---------------------------------------------------------------------------
// Edge payloads: denormals stay in the tolerance gate; NaN/Inf are checked
// for per-backend width invariance only (see the header comment).
// ---------------------------------------------------------------------------

TEST(BackendDiff, DenormalPayloads) {
  prop::for_all("denormal payloads", kSeed, 20, [](prop::Gen& g) {
    const prop::Shape s = prop::shape(g, 32);
    const la::Matrix a = payload_matrix(g, s.rows, s.cols,
                                        prop::Payload::kDenormal);
    const auto x = prop::payload_vector(g, s.cols, prop::Payload::kDenormal);
    const auto res = check_kernel(
        "gemv(denormal)",
        [&] {
          std::vector<double> y(s.rows, 0.0);
          la::gemv(1.0, a, x, 0.0, y);
          return y;
        },
        1e-12);
    if (!res) {
      return res;
    }
    const auto v = prop::payload_vector(g, prop::dim(g, 100),
                                        prop::Payload::kDenormal);
    return check_kernel(
        "dot(denormal)",
        [&] { return std::vector<double>{la::dot(v, v)}; },
        1e-12);
  });
}

TEST(BackendDiff, NonFinitePayloadsWidthInvariant) {
  prop::for_all("NaN/Inf payloads", kSeed, 20, [](prop::Gen& g) {
    const prop::Shape s = prop::shape(g, 32);
    const la::Matrix a = payload_matrix(g, s.rows, s.cols,
                                        prop::Payload::kNonFinite);
    const auto x = prop::payload_vector(g, s.cols, prop::Payload::kNonFinite);
    const auto gemv_res = check_kernel(
        "gemv(nonfinite)",
        [&] {
          std::vector<double> y(s.rows, 0.0);
          la::gemv(1.0, a, x, 0.0, y);
          return y;
        },
        /*cross_tol=*/-1.0);
    if (!gemv_res) {
      return gemv_res;
    }
    const sparse::CsrMatrix sp =
        prop::csr(g, s.rows, s.cols, prop::Payload::kNonFinite);
    return check_kernel(
        "spmv(nonfinite)",
        [&] {
          std::vector<double> y(s.rows, 0.0);
          sp.spmv(x, y);
          return y;
        },
        /*cross_tol=*/-1.0);
  });
}

// ---------------------------------------------------------------------------
// Backend selection plumbing.
// ---------------------------------------------------------------------------

TEST(BackendSelect, ParseAndName) {
  EXPECT_EQ(la::parse_backend("scalar"), la::Backend::kScalar);
  EXPECT_EQ(la::parse_backend("simd"), la::Backend::kSimd);
  EXPECT_STREQ(la::backend_name(la::Backend::kScalar), "scalar");
  EXPECT_STREQ(la::backend_name(la::Backend::kSimd), "simd");
}

TEST(BackendSelect, RejectsUnknownName) {
  EXPECT_THROW(static_cast<void>(la::parse_backend("avx9000")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(la::parse_backend("")), InvalidArgument);
  EXPECT_THROW(la::install_backend_from("turbo"), InvalidArgument);
}

TEST(BackendSelect, EnvOverrideAndCliPrecedence) {
  la::ScopedBackend restore(la::active_backend());
  // Env alone drives the fallback path.
  ASSERT_EQ(setenv("RCF_BACKEND", "simd", 1), 0);
  EXPECT_EQ(la::backend_from_env(la::Backend::kScalar), la::Backend::kSimd);
  EXPECT_EQ(la::install_backend_from(""), la::Backend::kSimd);
  EXPECT_EQ(la::active_backend(), la::Backend::kSimd);
  // A non-empty CLI value (--backend) beats the env.
  EXPECT_EQ(la::install_backend_from("scalar"), la::Backend::kScalar);
  EXPECT_EQ(la::active_backend(), la::Backend::kScalar);
  // Unknown env value: rejected, not silently scalar.
  ASSERT_EQ(setenv("RCF_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(static_cast<void>(la::backend_from_env(la::Backend::kScalar)),
               InvalidArgument);
  ASSERT_EQ(unsetenv("RCF_BACKEND"), 0);
  EXPECT_EQ(la::backend_from_env(la::Backend::kScalar), la::Backend::kScalar);
}

TEST(BackendSelect, ScopedBackendRestores) {
  const la::Backend before = la::active_backend();
  {
    la::ScopedBackend scoped(la::Backend::kSimd);
    EXPECT_EQ(la::active_backend(), la::Backend::kSimd);
    {
      la::ScopedBackend nested(la::Backend::kScalar);
      EXPECT_EQ(la::active_backend(), la::Backend::kScalar);
    }
    EXPECT_EQ(la::active_backend(), la::Backend::kSimd);
  }
  EXPECT_EQ(la::active_backend(), before);
}

TEST(BackendSelect, SolveResultStampsActiveBackend) {
  data::SyntheticOptions dopts;
  dopts.num_samples = 60;
  dopts.num_features = 8;
  dopts.density = 0.5;
  dopts.seed = 7;
  const data::Dataset dataset = data::make_regression(dopts);
  const core::LassoProblem problem(dataset, 0.01);
  core::SolverOptions opts;
  opts.max_iters = 3;
  opts.track_history = false;
  for (const la::Backend backend :
       {la::Backend::kScalar, la::Backend::kSimd}) {
    la::ScopedBackend scoped(backend);
    const core::SolveResult result = core::solve_rc_sfista(problem, opts);
    EXPECT_EQ(result.backend, la::backend_name(backend));
  }
  // The failure factory stamps too.
  la::ScopedBackend scoped(la::Backend::kSimd);
  const auto failed = core::SolveResult::failure("x", "reason");
  EXPECT_EQ(failed.backend, "simd");
}

}  // namespace
}  // namespace rcf
