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
// Proximal Newton runs the least-squares code (core/prox_newton.hpp) with
// the curvature weights D_ii in place of 1: the same outer loop, Hessian
// stream, matrix-free step-size probe, inner solvers, damped line search,
// checkpoint/resume, phases and convergence ring.
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

  /// out = grad f(w); a non-empty `curvature` (length m) receives the
  /// Hessian weights D_ii = sigma_i (1 - sigma_i) at w.
  void gradient(std::span<const double> w, std::span<double> out,
                std::span<double> curvature = {}) const;

  /// Global Lipschitz bound of grad f: lambda_max((1/4m) X X^T).
  [[nodiscard]] double lipschitz() const;

 private:
  const data::Dataset* dataset_;
  double lambda_;
  mutable std::optional<double> lipschitz_;
};

/// Proximal Newton (Alg. 1) on the logistic problem: the least-squares
/// solver with the logistic curvature, so every PnOptions field applies,
/// checkpoint_sink and resume_from included.
SolveResult solve_logistic_prox_newton(const LogisticProblem& problem,
                                       const PnOptions& opts);

/// Accelerated proximal gradient baseline / reference for the logistic
/// problem: the reference solve's FISTA-with-restart loop
/// (core/reference.cpp) on the exact gradient.
SolveResult solve_logistic_fista(const LogisticProblem& problem,
                                 int max_iters = 20000,
                                 double rel_change_tol = 1e-13);

}  // namespace rcf::core
