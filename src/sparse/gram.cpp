#include "sparse/gram.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "check/partition.hpp"
#include "common/error.hpp"
#include "exec/pool.hpp"
#include "la/backend.hpp"
#include "la/blas.hpp"
#include "la/simd.hpp"

namespace rcf::sparse {

namespace {

/// Accumulates the H rows in [lo, hi) of one weighted sparse outer product
/// h += w * x x^T (upper triangle) and the matching entries of
/// r += (yi * w) * x.  `yw` is the pre-folded scalar yi * w, hoisted so the
/// inner loops do one multiply per touched entry instead of two.
///
/// The [lo, hi) row range is how the pool parallelizes this kernel: each
/// pool thread owns a disjoint range of H rows (= feature indices) and
/// every thread walks the sample rows in the same order, so each H / r
/// entry accumulates exactly the sequential sum -- bit-identical results
/// at any pool width (DESIGN.md "Execution layer").
inline void outer_product_row_range(const SparseRowView& row, double w,
                                    double yw, la::Matrix& h,
                                    std::span<double> r, std::size_t lo,
                                    std::size_t hi) {
  const std::size_t k = row.nnz();
  if (k == h.cols()) {
    // Dense row: column indices are 0..d-1, so skip the indirection and let
    // the inner loop vectorize (the hot path for dense datasets such as
    // epsilon, where this kernel is d^2 work per sample).
    for (std::size_t a = lo; a < hi; ++a) {
      const double va = w * row.vals[a];
      auto hrow = h.row(a);
      for (std::size_t b = a; b < k; ++b) {
        hrow[b] += va * row.vals[b];
      }
      r[a] += yw * row.vals[a];
    }
  } else {
    // Column indices within a row are strictly ascending (CSR invariant),
    // so the first index >= lo locates this thread's slice of the row.
    const std::uint32_t* cols_begin = row.cols.data();
    const std::uint32_t* cols_end = cols_begin + k;
    const std::uint32_t* first =
        lo == 0 ? cols_begin
                : std::lower_bound(cols_begin, cols_end,
                                   static_cast<std::uint32_t>(lo));
    for (std::size_t a = static_cast<std::size_t>(first - cols_begin);
         a < k && row.cols[a] < hi; ++a) {
      const std::uint32_t ca = row.cols[a];
      const double va = w * row.vals[a];
      auto hrow = h.row(ca);
      for (std::size_t b = a; b < k; ++b) {
        hrow[row.cols[b]] += va * row.vals[b];
      }
      r[ca] += yw * row.vals[a];
    }
  }
}

/// Blocked SIMD fast path: four *dense* sample rows fused into one sweep of
/// the owned H rows, so each H element is loaded and stored once per four
/// samples instead of once per sample (the accumulation is memory-bound on
/// H traffic).  Every H / r element still receives exactly one term per
/// sample, added in idx order -- the same per-element term order as the
/// scalar path -- and the four-sample batch boundaries depend only on the
/// idx list, never on the pool width (DESIGN.md "Kernel backends").
inline void dense_quad_row_range(const SparseRowView rows[4],
                                 const double w[4], const double yw[4],
                                 la::Matrix& h, std::span<double> r,
                                 std::size_t lo, std::size_t hi) {
  const std::size_t k = h.cols();
  const double* v0 = rows[0].vals.data();
  const double* v1 = rows[1].vals.data();
  const double* v2 = rows[2].vals.data();
  const double* v3 = rows[3].vals.data();
  for (std::size_t a = lo; a < hi; ++a) {
    const double va0 = w[0] * v0[a];
    const double va1 = w[1] * v1[a];
    const double va2 = w[2] * v2[a];
    const double va3 = w[3] * v3[a];
    auto hrow = h.row(a);
    const la::simd::V4 b0 = la::simd::broadcast(va0);
    const la::simd::V4 b1 = la::simd::broadcast(va1);
    const la::simd::V4 b2 = la::simd::broadcast(va2);
    const la::simd::V4 b3 = la::simd::broadcast(va3);
    std::size_t b = a;
    for (; b + la::simd::kLanes <= k; b += la::simd::kLanes) {
      la::simd::V4 acc = la::simd::load4(hrow.data() + b);
      acc += b0 * la::simd::load4(v0 + b);
      acc += b1 * la::simd::load4(v1 + b);
      acc += b2 * la::simd::load4(v2 + b);
      acc += b3 * la::simd::load4(v3 + b);
      la::simd::store4(hrow.data() + b, acc);
    }
    for (; b < k; ++b) {
      hrow[b] += va0 * v0[b];
      hrow[b] += va1 * v1[b];
      hrow[b] += va2 * v2[b];
      hrow[b] += va3 * v3[b];
    }
    r[a] += yw[0] * v0[a];
    r[a] += yw[1] * v1[a];
    r[a] += yw[2] * v2[a];
    r[a] += yw[3] * v3[a];
  }
}

/// Accumulation loop shared by the plain and weighted row scales:
/// `row_scale(i)` yields the (w, yw) pair for sample row i.  Dispatches
/// onto the ambient pool with triangle-balanced H-row ranges when the work
/// is worth it; sequential execution is the width-1 special case of the
/// same code (full range [0, d)).
template <typename RowScale>
void accumulate_rows(const CsrMatrix& xt, std::span<const std::uint32_t> idx,
                     std::uint64_t flops, la::Matrix& h, std::span<double> r,
                     const RowScale& row_scale) {
  const std::size_t d = h.cols();
  const bool use_simd = la::active_backend() == la::Backend::kSimd;
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    if (use_simd) {
      // Batch the sample list in fours; a batch of dense rows takes the
      // fused quad sweep, anything else (sparse rows, the tail) falls back
      // to the per-sample kernel.  Batch composition is a pure function of
      // (idx, matrix), so the grouping is identical at every pool width.
      std::size_t s = 0;
      for (; s + 4 <= idx.size(); s += 4) {
        SparseRowView rows[4] = {xt.row(idx[s]), xt.row(idx[s + 1]),
                                 xt.row(idx[s + 2]), xt.row(idx[s + 3])};
        double w[4], yw[4];
        bool all_dense = true;
        for (int q = 0; q < 4; ++q) {
          RCF_DCHECK(idx[s + static_cast<std::size_t>(q)] < xt.rows());
          const auto [wq, ywq] = row_scale(idx[s + static_cast<std::size_t>(q)]);
          w[q] = wq;
          yw[q] = ywq;
          all_dense = all_dense && rows[q].nnz() == d;
        }
        if (all_dense && d > 0) {
          dense_quad_row_range(rows, w, yw, h, r, lo, hi);
        } else {
          for (int q = 0; q < 4; ++q) {
            outer_product_row_range(rows[q], w[q], yw[q], h, r, lo, hi);
          }
        }
      }
      for (; s < idx.size(); ++s) {
        const std::uint32_t i = idx[s];
        RCF_DCHECK(i < xt.rows());
        const auto [wi, ywi] = row_scale(i);
        outer_product_row_range(xt.row(i), wi, ywi, h, r, lo, hi);
      }
      return;
    }
    for (const std::uint32_t i : idx) {
      RCF_DCHECK(i < xt.rows());
      const auto [w, yw] = row_scale(i);
      outer_product_row_range(xt.row(i), w, yw, h, r, lo, hi);
    }
  };
  exec::Pool* pool = exec::usable_pool(flops);
  if (pool == nullptr) {
    run_range(0, d);
    return;
  }
  const int width = pool->width();
  if (check::partition_audit_due()) {
    check::audit_partition(
        "gram.task", d, static_cast<std::size_t>(width),
        [&](std::size_t part) {
          const exec::Range pr =
              exec::triangle_range(d, width, static_cast<int>(part));
          return std::pair<std::size_t, std::size_t>{pr.begin, pr.end};
        });
  }
  pool->run("gram.task", [&](int t) {
    const exec::Range range = exec::triangle_range(d, width, t);
    if (!range.empty()) {
      run_range(range.begin, range.end);
    }
  });
}

}  // namespace

std::uint64_t accumulate_sampled_gram(const CsrMatrix& xt,
                                      std::span<const double> y,
                                      std::span<const std::uint32_t> idx,
                                      double scale, la::Matrix& h,
                                      std::span<double> r,
                                      std::span<const double> weights) {
  const std::size_t d = xt.cols();
  RCF_CHECK_MSG(h.rows() == d && h.cols() == d, "gram: H must be d x d");
  RCF_CHECK_MSG(r.size() == d, "gram: R must have length d");
  RCF_CHECK_MSG(y.size() == xt.rows(), "gram: y must have length m");
  RCF_CHECK_MSG(weights.empty() || weights.size() == xt.rows(),
                "gram: weights must have length m");
  const std::uint64_t flops = sampled_gram_flops(xt, idx);
  if (!weights.empty()) {
    accumulate_rows(xt, idx, flops, h, r, [&](std::uint32_t i) {
      const double w = scale * weights[i];
      return std::pair<double, double>(w, y[i] * w);
    });
    return flops;
  }
  accumulate_rows(xt, idx, flops, h, r, [&](std::uint32_t i) {
    return std::pair<double, double>(scale, y[i] * scale);
  });
  return flops;
}

std::uint64_t sampled_gram(const CsrMatrix& xt, std::span<const double> y,
                           std::span<const std::uint32_t> idx, la::Matrix& h,
                           std::span<double> r) {
  RCF_CHECK_MSG(!idx.empty(), "sampled_gram: empty sample set");
  h.fill(0.0);
  la::set_zero(r);
  const double scale = 1.0 / static_cast<double>(idx.size());
  const std::uint64_t flops =
      accumulate_sampled_gram(xt, y, idx, scale, h, r);
  la::symmetrize_from_upper(h);
  return flops;
}

std::uint64_t full_gram(const CsrMatrix& xt, std::span<const double> y,
                        la::Matrix& h, std::span<double> r) {
  const std::size_t m = xt.rows();
  RCF_CHECK_MSG(m > 0, "full_gram: empty matrix");
  std::vector<std::uint32_t> all(m);
  std::iota(all.begin(), all.end(), 0u);
  return sampled_gram(xt, y, all, h, r);
}

std::uint64_t sampled_gram_flops(const CsrMatrix& xt,
                                 std::span<const std::uint32_t> idx) {
  std::uint64_t madds = 0;
  for (const std::uint32_t i : idx) {
    const std::uint64_t k = xt.row_nnz(i);
    madds += k * (k + 1) / 2 + k;
  }
  return 2 * madds;
}

}  // namespace rcf::sparse
