#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace rcf::la {

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw DimensionMismatch("Matrix::max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

}  // namespace rcf::la
