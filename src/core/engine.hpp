// The RC-SFISTA execution engine (paper Alg. 5): one SPMD loop over a
// dist::Communicator implements the whole solver family, because the
// communication-avoiding reformulations are *schedules*, not different
// arithmetic:
//
//   * k = 1, S = 1, b = 1      -> distributed FISTA (Alg. 2)
//   * k = 1, S = 1, b < 1      -> SFISTA (Alg. 4)
//   * k > 1                    -> iteration-overlapping RC-SFISTA
//   * S > 1                    -> Hessian-reuse RC-SFISTA
//   * variance_reduction       -> the Eq. 9 gradient estimator (Alg. 3)
//
// run_sfista_engine runs the 1-rank world inline on a SeqComm, charging the
// cost model for opts.procs modeled ranks; core/distributed.hpp runs the
// same loop on every rank of a ThreadGroup.  With (seed, iteration)-keyed
// sampling, runs with different k produce bitwise identical iterates --
// the identity behind Fig. 2(b) -- and any P agrees up to reduction order.
#pragma once

#include <span>
#include <string>

#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "data/partition.hpp"
#include "sparse/csr.hpp"

namespace rcf::core {

/// Runs the engine on `problem` under `opts` in the calling thread;
/// `solver_name` labels the result.  Throws InvalidArgument for
/// inconsistent options.
SolveResult run_sfista_engine(const LassoProblem& problem,
                              const SolverOptions& opts,
                              const std::string& solver_name);

/// The engine's automatic step size: opts.step_size if set, otherwise
/// step_scale over the larger of the full-Gram Lipschitz constant and a
/// probed spectral norm of sampled Gram draws (individual H_S can exceed L
/// substantially when mbar is small relative to d).  Computed once per
/// solve, outside the ranks, so every P runs the same trajectory.
double auto_step_size(const LassoProblem& problem, const SolverOptions& opts,
                      std::size_t mbar);

/// Charges the flops of one sampled Gram accumulation over `idx` (sorted)
/// to the kGram phase: each rank accumulates only its own samples, so the
/// critical path is the most loaded part of `partition` (one part per
/// modeled rank).  Returns the flops summed over all parts.
std::uint64_t charge_sampled_gram(model::CostTracker& cost,
                                  const sparse::CsrMatrix& xt,
                                  std::span<const std::uint32_t> idx,
                                  const data::Partition& partition);

}  // namespace rcf::core
