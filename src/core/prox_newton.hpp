// Proximal Newton driver (paper Alg. 1).
//
// Each outer iteration approximates the Hessian by uniform sampling (line 3),
// solves the quadratic subproblem
//
//   z_n = argmin_y  1/2 (y-w_n)^T H_n (y-w_n) + grad f(w_n)^T (y-w_n) + g(y)
//
// with a first-order inner solver (line 4), and takes a damped step.  Two
// inner solvers are provided (paper §3.3 / Fig. 7):
//
//  * PnInnerSolver::kFista    -- deterministic FISTA on the sampled Hessian.
//    This driver is matrix-free: two SpMVs and one d-word allreduce per
//    inner iteration.  (Logistic PN allreduces its d^2 Hessian once per
//    outer iteration, then iterates locally; see core/logistic.hpp.)
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

/// The PnOptions check of both PN drivers: throws InvalidArgument for any
/// out-of-range field, and for checkpoint_sink or resume_from unless the
/// driver supports `checkpointing`.
void validate_pn_options(const PnOptions& opts, bool checkpointing);

}  // namespace rcf::core
