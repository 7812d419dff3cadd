// Genuinely distributed (threaded SPMD) RC-SFISTA.
//
// The engine's loop (core/engine.hpp) on every rank of a dist::ThreadGroup:
// the dataset is block-partitioned by sample across the ranks exactly as in
// the paper's Fig. 1, each rank accumulates the Gram contribution of its
// own samples (stages A-B), one allreduce combines the k blocks (stage C),
// and every rank performs the redundant update sweeps (stage D).  The
// returned iterate agrees with the single-process solve up to
// floating-point reduction order (bitwise at one rank).
#pragma once

#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "dist/thread_comm.hpp"

namespace rcf::core {

/// Runs RC-SFISTA SPMD over the given thread group.  Honours every
/// SolverOptions field; the cost ledger models P = group.size(), so
/// opts.procs must be 1 or the group size (InvalidArgument otherwise).
SolveResult solve_rc_sfista_distributed(const LassoProblem& problem,
                                        const SolverOptions& opts,
                                        dist::ThreadGroup& group);

}  // namespace rcf::core
