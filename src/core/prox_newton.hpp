// Proximal Newton (paper Alg. 1), one implementation for every smooth loss.
//
// Each outer iteration approximates the Hessian by uniform sampling (line 3),
// solves the quadratic subproblem
//
//   z_n = argmin_y  1/2 (y-w_n)^T H_n (y-w_n) + grad f(w_n)^T (y-w_n) + g(y)
//
// with a first-order inner solver (line 4), and takes a damped step.  The
// loss enters only through its objective, its gradient and its per-sample
// curvature weights D_ii, so H_n = (1/mbar) X_S D_S X_S^T: D = I for least
// squares, sigma (1 - sigma) for logistic regression (core/logistic.hpp).
// Two inner solvers are provided (paper §3.3 / Fig. 7):
//
//  * PnInnerSolver::kFista    -- deterministic FISTA on the sampled Hessian,
//    matrix-free: two SpMVs and one d-word allreduce per inner iteration.
//  * PnInnerSolver::kRcSfista -- the engine's chunk loop with the anchor
//    pinned at w_n: a fresh sampled Hessian every inner iteration, one
//    allreduce of k*d^2 words per k inner iterations, Hessian-reuse S.
#pragma once

#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"

namespace rcf::core {

SolveResult solve_proximal_newton(const LassoProblem& problem,
                                  const PnOptions& opts);

}  // namespace rcf::core
