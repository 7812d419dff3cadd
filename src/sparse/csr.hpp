// Compressed sparse row matrix.
//
// The dataset matrix of the paper is X in R^{d x m} with samples as columns;
// we store its transpose X^T as CSR (one row per sample), which the paper's
// own implementation also does ("we use the compressed sparse row format").
// Row access is the primitive the sampled-Gram kernel needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/coo.hpp"

namespace rcf::sparse {

/// One sparse row: parallel spans of column indices and values.
struct SparseRowView {
  std::span<const std::uint32_t> cols;
  std::span<const double> vals;

  [[nodiscard]] std::size_t nnz() const { return cols.size(); }
};

/// Immutable CSR matrix of doubles.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets; duplicates are summed, entries need not be sorted.
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets);

  /// Builds directly from CSR arrays (validated).
  static CsrMatrix from_parts(std::size_t rows, std::size_t cols,
                              std::vector<std::size_t> row_ptr,
                              std::vector<std::uint32_t> col_idx,
                              std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// Fraction of entries that are non-zero (the paper's fill-in f).
  [[nodiscard]] double density() const;

  [[nodiscard]] SparseRowView row(std::size_t r) const {
    const std::size_t b = row_ptr_[r], e = row_ptr_[r + 1];
    return {{col_idx_.data() + b, e - b}, {values_.data() + b, e - b}};
  }

  [[nodiscard]] std::size_t row_nnz(std::size_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// y = A x  (2*nnz flops)
  void spmv(std::span<const double> x, std::span<double> y) const;

  /// y = A^T x  (2*nnz flops)
  void spmv_t(std::span<const double> x, std::span<double> y) const;

  /// New matrix containing the given rows (in the given order).
  [[nodiscard]] CsrMatrix select_rows(
      std::span<const std::uint32_t> rows) const;

  /// New matrix with rows [begin, end).
  [[nodiscard]] CsrMatrix slice_rows(std::size_t begin, std::size_t end) const;

  /// Transposed copy (CSR of A^T).
  [[nodiscard]] CsrMatrix transposed() const;

  /// Dense row-major expansion (small matrices / tests).
  [[nodiscard]] std::vector<double> to_dense() const;

  /// Approximate resident bytes of the CSR arrays.
  [[nodiscard]] std::size_t memory_bytes() const;

  [[nodiscard]] std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::uint32_t> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }

  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           a.row_ptr_ == b.row_ptr_ && a.col_idx_ == b.col_idx_ &&
           a.values_ == b.values_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace rcf::sparse
