#include "check/partition.hpp"
#include "exec/pool.hpp"
#include "la/backend.hpp"
#include "la/blas.hpp"
#include "la/simd.hpp"

namespace rcf::la {

// Parallelization note (applies to both kernels in this file): work is
// partitioned over *output* ranges -- rows of y for gemv, lower-triangle
// rows for the symmetrize -- and each output element is computed with
// exactly the sequential loop body and term order.  Results are therefore
// bit-identical at any pool width (DESIGN.md "Execution layer").
//
// Backend note: gemv carries two interchangeable per-range bodies.  The
// scalar body is the reference loop (unchanged from the seed); the SIMD
// body (la::Backend::kSimd) computes each row dot with simd::dot4, whose
// fixed-order lane accumulators make SIMD results differ from scalar within
// rounding but stay bit-identical across pool widths -- the grouping
// depends only on the reduction length, never on the partition (DESIGN.md
// "Kernel backends").

void gemv(double alpha, const Matrix& a, std::span<const double> x, double beta,
          std::span<double> y) {
  if (a.cols() != x.size() || a.rows() != y.size()) {
    throw DimensionMismatch("gemv: shape mismatch");
  }
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  const bool use_simd = active_backend() == Backend::kSimd;
  const auto row_block = [&](int, exec::Range range) {
    if (use_simd) {
      for (std::size_t r = range.begin; r < range.end; ++r) {
        const auto row = a.row(r);
        const double acc = simd::dot4(row.data(), x.data(), row.size());
        y[r] = alpha * acc + beta * y[r];
      }
      return;
    }
    for (std::size_t r = range.begin; r < range.end; ++r) {
      const auto row = a.row(r);
      double acc = 0.0;
      for (std::size_t c = 0; c < row.size(); ++c) {
        acc += row[c] * x[c];
      }
      y[r] = alpha * acc + beta * y[r];
    }
  };
  exec::Pool* pool =
      exec::usable_pool(2 * static_cast<std::uint64_t>(rows) * cols);
  if (pool == nullptr) {
    row_block(0, {0, rows});
    return;
  }
  const int width = pool->width();
  pool->run("la.gemv", [&](int t) {
    const exec::Range range = exec::block_range(rows, width, t);
    if (!range.empty()) {
      row_block(t, range);
    }
  });
}

void symmetrize_from_upper(Matrix& c) {
  if (c.rows() != c.cols()) {
    throw DimensionMismatch("symmetrize_from_upper: matrix must be square");
  }
  const std::size_t n = c.rows();
  // Task t owns the lower-triangle rows in its range: writes to row j only,
  // reads from the (already final) upper triangle.  Pure copies: no SIMD
  // variant needed (no arithmetic to regroup).
  const auto row_block = [&](int, exec::Range range) {
    for (std::size_t j = range.begin; j < range.end; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        c(j, i) = c(i, j);
      }
    }
  };
  exec::Pool* pool = exec::usable_pool(static_cast<std::uint64_t>(n) * n / 2);
  if (pool == nullptr) {
    row_block(0, {0, n});
    return;
  }
  const int width = pool->width();
  if (check::partition_audit_due()) {
    // Audit parts in reverse so claimed ranges match the dispatch below;
    // the auditor only cares that the union of [n-rev.end, n-rev.begin)
    // tiles [0, n) exactly.
    check::audit_partition(
        "la.symmetrize", n, static_cast<std::size_t>(width),
        [&](std::size_t part) {
          const exec::Range rev = exec::triangle_range(
              n, width, width - 1 - static_cast<int>(part));
          return std::pair<std::size_t, std::size_t>{n - rev.end,
                                                     n - rev.begin};
        });
  }
  pool->run("la.symmetrize", [&](int t) {
    // Lower-triangle row j carries j copies: mirror-image triangle balance
    // (row 0 is empty), so reuse triangle_range on the reversed index.
    const exec::Range rev = exec::triangle_range(n, width, width - 1 - t);
    const exec::Range range{n - rev.end, n - rev.begin};
    if (!range.empty()) {
      row_block(t, range);
    }
  });
}

}  // namespace rcf::la
