// l1-regularized logistic regression and its proximal Newton solver.
//
// The paper's framework (§2.1) covers general empirical risk minimization;
// this module is the natural extension beyond least squares:
//
//   min_w F(w) = (1/m) sum_i log(1 + exp(-y_i x_i^T w)) + lambda ||w||_1
//
// with y_i in {-1, +1}.  Gradient and Hessian:
//
//   grad f(w) = -(1/m) X diag(y) s,   s_i = sigma(-y_i x_i^T w)
//   H(w)      =  (1/m) X D X^T,       D_ii = sigma_i (1 - sigma_i)
//
// The proximal Newton driver mirrors Alg. 1: per outer iteration the exact
// gradient is computed distributed (two SpMVs + a d-word allreduce), the
// weighted Hessian is estimated by uniform sampling, and the quadratic
// subproblem is solved by FISTA on one allreduced d^2 sample, or by the
// engine's chunk loop of k-overlapped sampled blocks (RC-SFISTA).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/options.hpp"
#include "core/result.hpp"
#include "data/dataset.hpp"
#include "la/matrix.hpp"
#include "la/vector.hpp"

namespace rcf::core {

class LogisticProblem {
 public:
  /// Keeps a reference to `dataset`; labels must be in {-1, +1}.
  LogisticProblem(const data::Dataset& dataset, double lambda);

  [[nodiscard]] std::size_t dim() const { return dataset_->num_features(); }
  [[nodiscard]] std::size_t num_samples() const {
    return dataset_->num_samples();
  }
  [[nodiscard]] double lambda() const { return lambda_; }
  [[nodiscard]] const data::Dataset& dataset() const { return *dataset_; }

  /// F(w) = f(w) + lambda ||w||_1.
  [[nodiscard]] double objective(std::span<const double> w) const;

  /// f(w), the mean logistic loss.
  [[nodiscard]] double smooth_value(std::span<const double> w) const;

  /// out = grad f(w); also fills `hessian_weights` (length m) with the
  /// diagonal D_ii = sigma_i (1 - sigma_i) at w when non-null.
  void gradient(std::span<const double> w, std::span<double> out,
                std::span<double> hessian_weights = {}) const;

  /// Global Lipschitz bound of grad f: lambda_max((1/4m) X X^T).
  [[nodiscard]] double lipschitz() const;

 private:
  const data::Dataset* dataset_;
  double lambda_;
  mutable std::optional<double> lipschitz_;
};

/// Proximal Newton (Alg. 1) on the logistic problem.  Takes the same
/// PnOptions as the least-squares driver, but has no checkpointing:
/// checkpoint_sink or resume_from throws InvalidArgument.
SolveResult solve_logistic_prox_newton(const LogisticProblem& problem,
                                       const PnOptions& opts);

/// Accelerated proximal gradient baseline / reference for the logistic
/// problem (FISTA with adaptive restart on the exact gradient).
SolveResult solve_logistic_fista(const LogisticProblem& problem,
                                 int max_iters = 20000,
                                 double rel_change_tol = 1e-13);

}  // namespace rcf::core
