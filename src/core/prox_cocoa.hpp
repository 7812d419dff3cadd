// ProxCoCoA baseline (Smith et al. 2015, the paper's §5.4 comparison).
//
// Primal block-separable CoCoA for the lasso: the d coordinates of w are
// partitioned across P workers; each round every worker runs local
// coordinate descent on its block against a round-stale shared residual,
// and the residual updates are combined with one allreduce of an m-vector.
//
// Communication shape per round: L = O(log P) messages, W = O(m log P)
// words -- note m (sample count) words rather than RC-SFISTA's d^2, which is
// the structural reason the two methods trade differently with the data
// shape.  The workers' updates are added (sigma' = P), which scales each
// worker's local quadratic term by P: that is what makes CoCoA's per-round
// progress conservative at large P (the slow convergence visible in Fig. 6).
#pragma once

#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"

namespace rcf::core {

SolveResult solve_prox_cocoa(const LassoProblem& problem,
                             const CocoaOptions& opts);

}  // namespace rcf::core
