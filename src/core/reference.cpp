// High-accuracy reference solvers (the TFOCS substitute; see DESIGN.md).
//
// One deterministic FISTA loop serves both losses.  Least squares computes
// its gradient from the exact precomputed Gram matrix H = (1/m) X X^T --
// the cheapest path to machine-precision optima for d up to a few thousand,
// independent of m; logistic regression uses its exact gradient.

#include <algorithm>
#include <cmath>
#include <span>

#include "common/timer.hpp"
#include "core/logistic.hpp"
#include "core/momentum.hpp"
#include "core/solvers.hpp"
#include "la/blas.hpp"
#include "prox/operators.hpp"

namespace rcf::core {

namespace {

/// FISTA from w = 0 with step 1/L on F = f + lambda ||w||_1, where
/// `gradient(v, out)` writes grad f(v), with O'Donoghue-Candes
/// gradient-based adaptive restart: reset the momentum counter whenever the
/// momentum direction opposes the latest step.  Gives effectively linear
/// convergence on sparse solutions, which is what a 1e-14 reference
/// tolerance needs.  Stops when F changes by at most rel_change_tol
/// (relative) over a 10-iteration window.
template <class Problem, class Gradient>
SolveResult fista_with_restart(const Problem& problem,
                               const Gradient& gradient, int max_iters,
                               double rel_change_tol, const char* solver) {
  WallTimer wall;
  const std::size_t d = problem.dim();
  const double gamma = 1.0 / problem.lipschitz();
  const double lambda_gamma = problem.lambda() * gamma;
  const MomentumSchedule mu(MomentumRule::kFista);

  la::Vector w(d), w_prev(d), v(d), grad(d), theta(d);
  double prev_window_obj = problem.objective(w.span());

  SolveResult result;
  result.solver = solver;
  constexpr int kWindow = 10;
  int momentum_n = 0;
  int n = 0;
  for (n = 1; n <= max_iters; ++n) {
    ++momentum_n;
    const double m_n = mu.mu(momentum_n);
    // v_n = w_{n-1} + mu_n (w_{n-1} - w_{n-2})
    la::waxpby(1.0 + m_n, w.span(), -m_n, w_prev.span(), v.span());
    gradient(v.span(), grad.span());
    la::waxpby(1.0, v.span(), -gamma, grad.span(), theta.span());
    std::swap(w, w_prev);
    prox::soft_threshold(theta.span(), lambda_gamma, w.span());

    // Restart test: <v - w_new, w_new - w_old> > 0.
    double dot_restart = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      dot_restart += (v[i] - w[i]) * (w[i] - w_prev[i]);
    }
    if (dot_restart > 0.0) {
      momentum_n = 0;
      la::copy(w.span(), w_prev.span());
    }

    if (n % kWindow == 0) {
      const double obj = problem.objective(w.span());
      const double denom = std::max(std::abs(obj), 1e-300);
      if (std::abs(prev_window_obj - obj) <= rel_change_tol * denom) {
        result.converged = true;
        break;
      }
      prev_window_obj = obj;
    }
  }

  result.w = w;
  result.iterations = std::min(n, max_iters);
  result.objective = problem.objective(w.span());
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace

SolveResult solve_reference(const LassoProblem& problem,
                            const ReferenceOptions& opts) {
  // grad f(v) = H v - R, with H and R built on the first call and cached.
  const auto gradient = [&problem](std::span<const double> v,
                                   std::span<double> out) {
    la::gemv(1.0, problem.full_hessian(), v, 0.0, out);
    la::axpy(-1.0, problem.full_rhs().span(), out);
  };
  return fista_with_restart(problem, gradient, opts.max_iters,
                            opts.rel_change_tol, "reference");
}

SolveResult solve_logistic_fista(const LogisticProblem& problem,
                                 int max_iters, double rel_change_tol) {
  const auto gradient = [&problem](std::span<const double> v,
                                   std::span<double> out) {
    problem.gradient(v, out);
  };
  return fista_with_restart(problem, gradient, max_iters, rel_change_tol,
                            "logistic-fista");
}

}  // namespace rcf::core
