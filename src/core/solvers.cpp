#include "core/solvers.hpp"

#include <string>

#include "common/error.hpp"

namespace rcf::core {

namespace {

/// The facades below fix fields of the RC-SFISTA options.  A caller's
/// other value would be dropped silently, so it is rejected by name.
void reject_fixed(bool set, const char* solver, const char* field) {
  if (set) {
    throw InvalidArgument(std::string(solver) + ": " + field +
                          " is fixed by this solver (use solve_rc_sfista)");
  }
}

void reject_overlap(const SolverOptions& opts, const char* solver) {
  reject_fixed(opts.k != 1, solver, "k");
  reject_fixed(opts.s != 1, solver, "s");
}

}  // namespace

SolveResult solve_fista(const LassoProblem& problem,
                        const SolverOptions& opts) {
  reject_overlap(opts, "fista");
  reject_fixed(opts.sampling_rate != 1.0, "fista", "sampling_rate");
  reject_fixed(opts.variance_reduction, "fista", "variance_reduction");
  return run_sfista_engine(problem, opts, "fista");
}

SolveResult solve_sfista(const LassoProblem& problem,
                         const SolverOptions& opts) {
  reject_overlap(opts, "sfista");
  return run_sfista_engine(problem, opts, "sfista");
}

SolveResult solve_rc_sfista(const LassoProblem& problem,
                            const SolverOptions& opts) {
  return run_sfista_engine(problem, opts, "rc-sfista");
}

}  // namespace rcf::core
