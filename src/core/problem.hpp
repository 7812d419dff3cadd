// The l1-regularized least squares problem (paper Eq. 3):
//
//   min_w F(w) = (1/2m) ||X^T w - y||^2 + lambda ||w||_1
//
// with X in R^{d x m} (stored as X^T, one CSR row per sample).  Gradient and
// Hessian of the smooth part (Eq. 4-5):
//
//   H = (1/m) X X^T,  R = (1/m) X y,  grad f(w) = H w - R.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "data/dataset.hpp"
#include "la/matrix.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace rcf::core {

class LassoProblem {
 public:
  /// Keeps a reference to `dataset`; the dataset must outlive the problem.
  LassoProblem(const data::Dataset& dataset, double lambda);

  [[nodiscard]] std::size_t dim() const { return dataset_->num_features(); }
  [[nodiscard]] std::size_t num_samples() const {
    return dataset_->num_samples();
  }
  [[nodiscard]] double lambda() const { return lambda_; }
  [[nodiscard]] const data::Dataset& dataset() const { return *dataset_; }
  [[nodiscard]] const sparse::CsrMatrix& xt() const { return dataset_->xt; }
  [[nodiscard]] const la::Vector& y() const { return dataset_->y; }

  /// F(w) = f(w) + lambda ||w||_1.
  [[nodiscard]] double objective(std::span<const double> w) const;

  /// f(w) = (1/2m) ||X^T w - y||^2.
  [[nodiscard]] double smooth_value(std::span<const double> w) const;

  /// out = grad f(w) = (1/m)(X X^T w - X y), computed with two SpMVs.  A
  /// non-empty `curvature` (length m) receives the per-sample Hessian
  /// weights, all 1 for least squares (H = (1/m) X diag(curvature) X^T).
  void gradient(std::span<const double> w, std::span<double> out,
                std::span<double> curvature = {}) const;

  /// Lipschitz constant L = lambda_max((1/m) X X^T); computed once by power
  /// iteration on the implicit operator and cached.
  [[nodiscard]] double lipschitz() const;

  /// Dense H = (1/m) X X^T (lazily built and cached; d x d).
  [[nodiscard]] const la::Matrix& full_hessian() const;

  /// Dense R = (1/m) X y (lazily built and cached).
  [[nodiscard]] const la::Vector& full_rhs() const;

  /// Smallest lambda for which the lasso solution is identically zero:
  /// lambda_max = ||grad f(0)||_inf = ||(1/m) X y||_inf.  Computed with one
  /// SpMV (does not build the Gram matrix).
  [[nodiscard]] double lambda_max() const;

  /// The step size upper bound of Theorem 1 (Eq. 10) for batch size mbar:
  /// gamma <= 1 / max(L/2 + sqrt(1/4 + 4 L^2 (m-mbar)/(mbar (m-1))), L).
  [[nodiscard]] double theorem1_step_bound(std::size_t mbar) const;

 private:
  const data::Dataset* dataset_;
  double lambda_;
  mutable std::optional<double> lipschitz_;
  mutable std::optional<la::Matrix> hessian_;
  mutable std::optional<la::Vector> rhs_;
};

}  // namespace rcf::core
