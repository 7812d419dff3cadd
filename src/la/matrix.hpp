// Dense row-major matrix type.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace rcf::la {

/// Owning dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  double& operator()(std::size_t r, std::size_t c) {
    RCF_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    RCF_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  [[nodiscard]] std::span<double> row(std::size_t r) {
    RCF_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    RCF_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Flat view of the whole storage (row-major).
  [[nodiscard]] std::span<double> flat() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const double> flat() const {
    return {data_.data(), data_.size()};
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  void fill(double value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshapes to rows x cols, zero-filled (discards contents).
  void reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  /// Max |a_ij - b_ij|; throws DimensionMismatch on shape mismatch.
  [[nodiscard]] static double max_abs_diff(const Matrix& a, const Matrix& b);

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace rcf::la
