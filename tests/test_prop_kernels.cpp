// Property-based tests for the numerical kernels (see tests/prop.hpp for
// the harness).  Each property runs against dozens of generated shapes --
// ragged dimensions, varying densities, degenerate 1 x 1 cases -- instead
// of the handful of hand-picked fixtures in the per-kernel suites, and
// shrinks to a minimal replayable counterexample on failure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "exec/pool.hpp"
#include "la/backend.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "prop.hpp"
#include "prox/operators.hpp"
#include "sparse/csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/gram.hpp"

namespace rcf {
namespace {

constexpr std::uint64_t kSeed = 20180813;  // ICPP'18 vintage.

sparse::CsrMatrix random_csr(prop::Gen& g, std::size_t rows,
                             std::size_t cols) {
  sparse::GenerateOptions opts;
  opts.rows = rows;
  opts.cols = cols;
  opts.density = g.real(0.05, 1.0);
  opts.seed = g.seed();
  return sparse::generate_random(opts);
}

la::Matrix dense_of(const sparse::CsrMatrix& a) {
  la::Matrix m(a.rows(), a.cols());
  const auto flat = a.to_dense();
  std::copy(flat.begin(), flat.end(), m.data());
  return m;
}

// ---------------------------------------------------------------------------
// SpMV against the dense reference.
// ---------------------------------------------------------------------------

// y = A x must equal the dense gemv *bitwise* on the scalar backend: both
// kernels accumulate one row's products in ascending column order, and the
// dense sum's extra terms are exact zeros (0 * x adds +-0.0, which never
// changes a finite partial sum under ==).  On the SIMD backend the two
// kernels group the same terms differently (spmv's four strided chains vs
// gemv's four-lane dot), so the match is to tolerance there -- this test
// honors whatever backend the environment installed, which is how the CI
// RCF_BACKEND=simd sweep exercises it.  Shapes come from the shared
// prop::shape edge-case mix (0-row/0-col/1x1/aligned/ragged), structure
// from prop::csr (empty, single-entry and dense rows) -- the same
// generators the backend differential suite replays.
TEST(PropKernels, SpmvMatchesDenseGemv) {
  prop::for_all("spmv == dense gemv", kSeed, 40, [](prop::Gen& g) {
    const auto [rows, cols] = prop::shape(g, 40);
    const sparse::CsrMatrix a = prop::csr(g, rows, cols);
    const std::vector<double> x = g.vector(cols);
    std::vector<double> y(rows), y_ref(rows);
    a.spmv(x, y);
    la::gemv(1.0, dense_of(a), x, 0.0, y_ref);
    const double diff = la::max_abs_diff(y, y_ref);
    const double bound = la::active_backend() == la::Backend::kScalar
                             ? 0.0
                             : 1e-12 * (1.0 + la::nrm2(y_ref));
    if (diff > bound) {
      return testing::AssertionFailure()
             << rows << "x" << cols << " spmv diverged from dense gemv by "
             << diff;
    }
    return testing::AssertionSuccess();
  });
}

// y = A^T x against a dense reference loop that accumulates the rows in
// order into each column; the match is to tolerance.
TEST(PropKernels, SpmvTransposeMatchesDenseGemvT) {
  prop::for_all("spmv_t ~= dense A^T x", kSeed, 40, [](prop::Gen& g) {
    const auto [rows, cols] = prop::shape(g, 40);
    const sparse::CsrMatrix a = prop::csr(g, rows, cols);
    const std::vector<double> x = g.vector(rows);
    std::vector<double> y(cols), y_ref(cols, 0.0);
    a.spmv_t(x, y);
    const std::vector<double> dense = a.to_dense();
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        y_ref[c] += dense[r * cols + c] * x[r];
      }
    }
    const double diff = la::max_abs_diff(y, y_ref);
    const double bound = 1e-12 * (1.0 + la::nrm2(y_ref));
    if (diff > bound) {
      return testing::AssertionFailure()
             << rows << "x" << cols << " spmv_t off by " << diff
             << " (bound " << bound << ")";
    }
    return testing::AssertionSuccess();
  });
}

// ---------------------------------------------------------------------------
// Sampled Gram: symmetry, PSD structure, and the naive reference.
// ---------------------------------------------------------------------------

TEST(PropKernels, SampledGramSymmetricPsd) {
  prop::for_all("sampled_gram symmetric + PSD", kSeed, 30, [](prop::Gen& g) {
    const std::size_t m = g.size(2, 60);
    const std::size_t d = g.size(1, 24);
    const sparse::CsrMatrix xt = random_csr(g, m, d);
    const std::vector<double> y = g.vector(m);
    const auto mbar = static_cast<std::uint64_t>(g.size(1, m));
    const auto idx = g.rng().sample_without_replacement(m, mbar);
    la::Matrix h(d, d);
    std::vector<double> r(d);
    sparse::sampled_gram(xt, y, idx, h, r);

    // Exact symmetry: the kernel mirrors the upper triangle.
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i + 1; j < d; ++j) {
        if (h(i, j) != h(j, i)) {
          return testing::AssertionFailure()
                 << "asymmetric H at (" << i << "," << j
                 << "): " << h(i, j) << " vs " << h(j, i);
        }
      }
      if (h(i, i) < 0.0) {
        return testing::AssertionFailure()
               << "negative diagonal H(" << i << "," << i
               << ") = " << h(i, i);
      }
    }
    // PSD: v^T H v = ||X_S v||^2 / mbar >= 0 up to rounding.
    const std::vector<double> v = g.vector(d);
    std::vector<double> hv(d);
    la::gemv(1.0, h, v, 0.0, hv);
    const double quad = la::dot(v, hv);
    const double slack = 1e-10 * (1.0 + std::abs(quad));
    if (quad < -slack) {
      return testing::AssertionFailure()
             << "indefinite sampled Gram: v^T H v = " << quad;
    }
    return testing::AssertionSuccess();
  });
}

// The optimized accumulation (sparse outer products into the upper
// triangle) must agree with the naive dense reference sum.
TEST(PropKernels, SampledGramMatchesNaiveReference) {
  prop::for_all("sampled_gram ~= naive", kSeed, 30, [](prop::Gen& g) {
    const std::size_t m = g.size(2, 50);
    const std::size_t d = g.size(1, 20);
    const sparse::CsrMatrix xt = random_csr(g, m, d);
    const std::vector<double> y = g.vector(m);
    const auto mbar = static_cast<std::uint64_t>(g.size(1, m));
    const auto idx = g.rng().sample_without_replacement(m, mbar);
    la::Matrix h(d, d);
    std::vector<double> r(d);
    sparse::sampled_gram(xt, y, idx, h, r);

    const auto dense = xt.to_dense();  // m x d, row-major
    const double scale = 1.0 / static_cast<double>(idx.size());
    la::Matrix h_ref(d, d);
    std::vector<double> r_ref(d, 0.0);
    for (const auto i : idx) {
      const double* xi = dense.data() + static_cast<std::size_t>(i) * d;
      for (std::size_t a = 0; a < d; ++a) {
        for (std::size_t b = 0; b < d; ++b) {
          h_ref(a, b) += scale * xi[a] * xi[b];
        }
        r_ref[a] += scale * y[i] * xi[a];
      }
    }
    const double h_diff = la::max_abs_diff(h.flat(), h_ref.flat());
    const double r_diff = la::max_abs_diff(r, r_ref);
    const double bound = 1e-11 * (1.0 + static_cast<double>(idx.size()));
    if (h_diff > bound || r_diff > bound) {
      return testing::AssertionFailure()
             << "H off by " << h_diff << ", R off by " << r_diff
             << " (bound " << bound << ")";
    }
    return testing::AssertionSuccess();
  });
}

// ---------------------------------------------------------------------------
// Prox operator properties.
// ---------------------------------------------------------------------------

// Soft-thresholding is firmly nonexpansive; elementwise:
// |st(a) - st(b)| <= |a - b| (up to one rounding of the subtractions).
TEST(PropKernels, ProxSoftThresholdNonexpansive) {
  prop::for_all("soft_threshold nonexpansive", kSeed, 50, [](prop::Gen& g) {
    const std::size_t n = g.size(1, 100);
    const double thresh = g.real(0.0, 2.0);
    std::vector<double> a = g.vector(n), b = g.vector(n);
    std::vector<double> sa(n), sb(n);
    prox::soft_threshold(a, thresh, sa);
    prox::soft_threshold(b, thresh, sb);
    for (std::size_t i = 0; i < n; ++i) {
      const double lhs = std::abs(sa[i] - sb[i]);
      const double rhs = std::abs(a[i] - b[i]);
      if (lhs > rhs * (1.0 + 1e-15) + 1e-300) {
        return testing::AssertionFailure()
               << "expansion at i=" << i << ": |st(a)-st(b)|=" << lhs
               << " > |a-b|=" << rhs << " (thresh " << thresh << ")";
      }
    }
    return testing::AssertionSuccess();
  });
}

// Shrinkage: st(x) keeps the sign, never grows magnitude, and maps
// |x| <= thresh exactly to zero (the sparsity mechanism the paper's L1
// term relies on).
TEST(PropKernels, ProxSoftThresholdShrinks) {
  prop::for_all("soft_threshold shrinks", kSeed, 50, [](prop::Gen& g) {
    const std::size_t n = g.size(1, 100);
    const double thresh = g.real(0.0, 2.0);
    std::vector<double> x = g.vector(n);
    std::vector<double> sx(n);
    prox::soft_threshold(x, thresh, sx);
    for (std::size_t i = 0; i < n; ++i) {
      if (sx[i] * x[i] < 0.0) {
        return testing::AssertionFailure() << "sign flip at i=" << i;
      }
      if (std::abs(sx[i]) > std::abs(x[i])) {
        return testing::AssertionFailure() << "magnitude grew at i=" << i;
      }
      if (std::abs(x[i]) <= thresh && sx[i] != 0.0) {
        return testing::AssertionFailure()
               << "|x| <= thresh not mapped to zero at i=" << i << " (x="
               << x[i] << ", thresh=" << thresh << ")";
      }
    }
    return testing::AssertionSuccess();
  });
}

// ---------------------------------------------------------------------------
// Pool-width invariance: the pooled kernels must be BIT-identical at any
// width (the repo's core determinism contract).
// ---------------------------------------------------------------------------

TEST(PropKernels, PooledKernelsWidthInvariant) {
  prop::for_all("kernels bitwise across widths 1/2/7", kSeed, 20,
                [](prop::Gen& g) {
    const std::size_t m = g.size(2, 60);
    const std::size_t d = prop::dim(g, 24, /*allow_empty=*/false);
    const sparse::CsrMatrix xt = prop::csr(g, m, d);
    const std::vector<double> y = g.vector(m);
    const std::vector<double> x = g.vector(d);
    const auto mbar = static_cast<std::uint64_t>(g.size(1, m));
    const auto idx = g.rng().sample_without_replacement(m, mbar);

    struct Outputs {
      la::Matrix h;
      std::vector<double> r;
      std::vector<double> yv;
    };
    const auto run_at = [&](int width) {
      exec::Pool pool(width);
      exec::PoolGuard guard(&pool);
      Outputs out{la::Matrix(d, d), std::vector<double>(d),
                  std::vector<double>(m)};
      sparse::sampled_gram(xt, y, idx, out.h, out.r);
      xt.spmv(x, out.yv);
      return out;
    };

    const Outputs base = run_at(1);
    for (const int width : {2, 7}) {
      const Outputs wide = run_at(width);
      if (la::max_abs_diff(base.h.flat(), wide.h.flat()) != 0.0 ||
          la::max_abs_diff(base.r, wide.r) != 0.0 ||
          la::max_abs_diff(base.yv, wide.yv) != 0.0) {
        return testing::AssertionFailure()
               << "width " << width << " diverged from width 1 at m=" << m
               << " d=" << d;
      }
    }
    return testing::AssertionSuccess();
  });
}

// ---------------------------------------------------------------------------
// Harness self-checks: generation is replayable, shrinking reaches lo.
// ---------------------------------------------------------------------------

TEST(PropKernels, HarnessIsReplayable) {
  prop::Gen a(kSeed, 7), b(kSeed, 7);
  EXPECT_EQ(a.vector(32), b.vector(32));
  EXPECT_EQ(a.size(1, 100), b.size(1, 100));
  EXPECT_EQ(a.seed(), b.seed());
}

TEST(PropKernels, HarnessShrinksTowardLowerBound) {
  // At the smallest shrink scale every size request collapses to ~lo, so a
  // shrunk counterexample really is structurally minimal.
  prop::Gen tiny(kSeed, 0, prop::kMinShrinkScale);
  for (int i = 0; i < 100; ++i) {
    const std::size_t v = tiny.size(1, 512);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 2u);
  }
}

}  // namespace
}  // namespace rcf
