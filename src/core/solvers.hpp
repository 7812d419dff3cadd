// Public solver entry points.
//
// Each runs the engine's loop (core/engine.hpp) as a 1-rank world in the
// calling thread, charging the alpha-beta-gamma cost model for `opts.procs`
// modeled processors; core/distributed.hpp runs the same loop on real
// ThreadComm ranks.
#pragma once

#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"

namespace rcf::core {

/// FISTA (Alg. 2), run distributed-style with full batches (b = 1); with
/// momentum = MomentumRule::kNone it is ISTA.  Throws InvalidArgument on a
/// k, s, sampling_rate or variance_reduction other than the default.
SolveResult solve_fista(const LassoProblem& problem,
                        const SolverOptions& opts);

/// SFISTA (Alg. 3/4): stochastic FISTA with sampling rate opts.sampling_rate
/// and one communication round per iteration.  Throws InvalidArgument
/// unless k = S = 1.
SolveResult solve_sfista(const LassoProblem& problem,
                         const SolverOptions& opts);

/// RC-SFISTA (Alg. 5): iteration-overlapping (opts.k) + Hessian-reuse
/// (opts.s) on top of SFISTA.  The paper's main contribution.
SolveResult solve_rc_sfista(const LassoProblem& problem,
                            const SolverOptions& opts);

/// Options for the high-accuracy reference solve (the paper's TFOCS role).
struct ReferenceOptions {
  int max_iters = 100000;
  /// Stop when the relative objective decrease over a 10-iteration window
  /// falls below this.
  double rel_change_tol = 1e-14;
};

/// Computes a high-accuracy optimum w* / F(w*) with deterministic FISTA on
/// the precomputed full Gram matrix.  Used to evaluate the relative
/// objective error e_n = |F(w_n) - F(w*)| / F(w*) of every experiment.
SolveResult solve_reference(const LassoProblem& problem,
                            const ReferenceOptions& opts = {});

}  // namespace rcf::core
