#include "sparse/csr.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "exec/pool.hpp"
#include "la/backend.hpp"

namespace rcf::sparse {

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets) {
  for (const auto& t : triplets) {
    RCF_CHECK_MSG(t.row < rows && t.col < cols,
                  "from_triplets: entry out of bounds");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size();) {
    const std::uint32_t r = triplets[i].row;
    const std::uint32_t c = triplets[i].col;
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r &&
           triplets[i].col == c) {
      v += triplets[i].value;  // sum duplicates
      ++i;
    }
    if (v != 0.0) {
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
      ++m.row_ptr_[r + 1];
    }
  }
  std::partial_sum(m.row_ptr_.begin(), m.row_ptr_.end(), m.row_ptr_.begin());
  return m;
}

CsrMatrix CsrMatrix::from_parts(std::size_t rows, std::size_t cols,
                                std::vector<std::size_t> row_ptr,
                                std::vector<std::uint32_t> col_idx,
                                std::vector<double> values) {
  RCF_CHECK_MSG(row_ptr.size() == rows + 1, "from_parts: bad row_ptr length");
  RCF_CHECK_MSG(row_ptr.front() == 0, "from_parts: row_ptr[0] != 0");
  RCF_CHECK_MSG(row_ptr.back() == col_idx.size(),
                "from_parts: row_ptr back != nnz");
  RCF_CHECK_MSG(col_idx.size() == values.size(),
                "from_parts: col/val length mismatch");
  for (std::size_t r = 0; r < rows; ++r) {
    RCF_CHECK_MSG(row_ptr[r] <= row_ptr[r + 1],
                  "from_parts: row_ptr not monotone");
    for (std::size_t i = row_ptr[r]; i + 1 < row_ptr[r + 1]; ++i) {
      RCF_CHECK_MSG(col_idx[i] < col_idx[i + 1],
                    "from_parts: columns not strictly ascending in row");
    }
  }
  for (auto c : col_idx) {
    RCF_CHECK_MSG(c < cols, "from_parts: column index out of range");
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

double CsrMatrix::density() const {
  if (rows_ == 0 || cols_ == 0) {
    return 0.0;
  }
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

// Parallelization note: spmv is output-partitioned on the ambient exec pool
// (nnz-balanced y rows, the sequential loop body per row), so its results
// are bit-identical at any pool width (DESIGN.md "Execution layer").
// spmv_t runs inline: partitioning its output means every task scans every
// row and binary-searches its column slice, which lost to one thread on
// every sparse shape measured, covtype's included.
//
// Backend note: the SIMD spmv body batches each row's gathered products
// into four independent accumulator chains combined in the fixed hsum
// order; the grouping is a pure function of the row's nnz, so each backend
// stays bitwise width-invariant (DESIGN.md "Kernel backends").  spmv_t
// only unrolls its scatter (per-element operation order unchanged from
// scalar).

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_) {
    throw DimensionMismatch("spmv: shape mismatch");
  }
  const bool use_simd = la::active_backend() == la::Backend::kSimd;
  const auto row_block = [&](int, exec::Range range) {
    if (use_simd) {
      // Row-batched gather kernel: the indirection blocks true vector
      // loads, so run four scalar chains abreast (breaking the dependency
      // chain) and fold them with the same association as simd::hsum.
      for (std::size_t r = range.begin; r < range.end; ++r) {
        const std::size_t row_end = row_ptr_[r + 1];
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        std::size_t i = row_ptr_[r];
        for (; i + 4 <= row_end; i += 4) {
          a0 += values_[i] * x[col_idx_[i]];
          a1 += values_[i + 1] * x[col_idx_[i + 1]];
          a2 += values_[i + 2] * x[col_idx_[i + 2]];
          a3 += values_[i + 3] * x[col_idx_[i + 3]];
        }
        double acc = (a0 + a1) + (a2 + a3);
        for (; i < row_end; ++i) {
          acc += values_[i] * x[col_idx_[i]];
        }
        y[r] = acc;
      }
      return;
    }
    for (std::size_t r = range.begin; r < range.end; ++r) {
      double acc = 0.0;
      for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
        acc += values_[i] * x[col_idx_[i]];
      }
      y[r] = acc;
    }
  };
  exec::Pool* pool = exec::usable_pool(2 * nnz());
  if (pool == nullptr) {
    row_block(0, {0, rows_});
    return;
  }
  const int width = pool->width();
  // Balance by nnz, not row count: task t covers the rows from
  // row_boundary(t) to row_boundary(t + 1), where row_boundary(t) is the
  // first row whose cumulative nnz reaches t's share.  Boundaries are a
  // pure function of (matrix, width), consecutive by construction
  // (lower_bound of non-decreasing targets), and cover every row --
  // including empty ones, whose y entry must still be written.
  const auto row_boundary = [&](int t) -> std::size_t {
    if (t <= 0) {
      return 0;
    }
    if (t >= width) {
      return rows_;
    }
    const std::size_t target = exec::block_range(nnz(), width, t).begin;
    return static_cast<std::size_t>(
        std::lower_bound(row_ptr_.begin(), row_ptr_.end(), target) -
        row_ptr_.begin());
  };
  pool->run("sparse.spmv", [&](int t) {
    const exec::Range range{row_boundary(t), row_boundary(t + 1)};
    if (!range.empty()) {
      row_block(t, range);
    }
  });
}

void CsrMatrix::spmv_t(std::span<const double> x, std::span<double> y) const {
  if (x.size() != rows_ || y.size() != cols_) {
    throw DimensionMismatch("spmv_t: shape mismatch");
  }
  const bool use_simd = la::active_backend() == la::Backend::kSimd;
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) {
      continue;
    }
    const std::size_t row_end = row_ptr_[r + 1];
    std::size_t i = row_ptr_[r];
    if (use_simd) {
      // Scatter with strictly ascending columns: the four statements hit
      // distinct y entries, so this is pure unrolling -- each y element
      // still receives exactly one term per row, in row order.
      for (; i + 4 <= row_end; i += 4) {
        y[col_idx_[i]] += xr * values_[i];
        y[col_idx_[i + 1]] += xr * values_[i + 1];
        y[col_idx_[i + 2]] += xr * values_[i + 2];
        y[col_idx_[i + 3]] += xr * values_[i + 3];
      }
    }
    for (; i < row_end; ++i) {
      y[col_idx_[i]] += xr * values_[i];
    }
  }
}

CsrMatrix CsrMatrix::select_rows(std::span<const std::uint32_t> rows) const {
  CsrMatrix m;
  m.rows_ = rows.size();
  m.cols_ = cols_;
  m.row_ptr_.assign(rows.size() + 1, 0);
  std::size_t total = 0;
  for (auto r : rows) {
    RCF_CHECK_MSG(r < rows_, "select_rows: row out of range");
    total += row_nnz(r);
  }
  m.col_idx_.reserve(total);
  m.values_.reserve(total);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    const auto lo = static_cast<std::ptrdiff_t>(row_ptr_[r]);
    const auto hi = static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
    m.col_idx_.insert(m.col_idx_.end(), col_idx_.begin() + lo,
                      col_idx_.begin() + hi);
    m.values_.insert(m.values_.end(), values_.begin() + lo,
                     values_.begin() + hi);
    m.row_ptr_[i + 1] = m.values_.size();
  }
  return m;
}

CsrMatrix CsrMatrix::slice_rows(std::size_t begin, std::size_t end) const {
  RCF_CHECK_MSG(begin <= end && end <= rows_, "slice_rows: bad range");
  CsrMatrix m;
  m.rows_ = end - begin;
  m.cols_ = cols_;
  m.row_ptr_.assign(m.rows_ + 1, 0);
  const std::size_t base = row_ptr_[begin];
  const auto lo = static_cast<std::ptrdiff_t>(base);
  const auto hi = static_cast<std::ptrdiff_t>(row_ptr_[end]);
  m.col_idx_.assign(col_idx_.begin() + lo, col_idx_.begin() + hi);
  m.values_.assign(values_.begin() + lo, values_.begin() + hi);
  for (std::size_t r = 0; r <= m.rows_; ++r) {
    m.row_ptr_[r] = row_ptr_[begin + r] - base;
  }
  return m;
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  // Counting sort on column index.
  for (auto c : col_idx_) {
    ++t.row_ptr_[c + 1];
  }
  std::partial_sum(t.row_ptr_.begin(), t.row_ptr_.end(), t.row_ptr_.begin());
  std::vector<std::size_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      const std::size_t pos = cursor[col_idx_[i]]++;
      t.col_idx_[pos] = static_cast<std::uint32_t>(r);
      t.values_[pos] = values_[i];
    }
  }
  return t;
}

std::vector<double> CsrMatrix::to_dense() const {
  std::vector<double> dense(rows_ * cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      dense[r * cols_ + col_idx_[i]] = values_[i];
    }
  }
  return dense;
}

std::size_t CsrMatrix::memory_bytes() const {
  return row_ptr_.size() * sizeof(std::size_t) +
         col_idx_.size() * sizeof(std::uint32_t) +
         values_.size() * sizeof(double);
}

}  // namespace rcf::sparse
