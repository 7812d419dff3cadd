// Solver result types.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dist/comm.hpp"
#include "la/backend.hpp"
#include "la/vector.hpp"
#include "model/cost.hpp"
#include "obs/convergence.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace rcf::core {

/// One point of the convergence history.
struct IterationRecord {
  int iteration = 0;        ///< global iteration index n (1-based).
  double objective = 0.0;   ///< F(w_n).
  /// Relative objective error e_n = |F(w_n) - F*| / |F*| (paper §5.1);
  /// NaN if no reference optimum was supplied.
  double rel_error = std::numeric_limits<double>::quiet_NaN();
  /// Modeled wall-clock up to and including this iteration (seconds under
  /// the options' MachineSpec).
  double sim_seconds = 0.0;
  /// Communication rounds performed so far.
  std::uint64_t comm_rounds = 0;

  // Raw machine-independent counters (cumulative), recorded so a single
  // trajectory can be re-costed for any (P, machine, collective) without
  // re-running -- the per-iteration numerics are P-independent (the
  // allreduce always reconstructs the full Gram blocks).
  double raw_gram_flops = 0.0;    ///< total Gram flops across all ranks.
  double raw_update_flops = 0.0;  ///< per-rank redundant update flops.
  double comm_payload_words = 0.0;  ///< allreduce payload (pre-collective).
};

/// Relative objective error |F - F*| / |F*| (paper §5.1); NaN when no
/// usable reference optimum F* was supplied.
[[nodiscard]] inline double relative_error(double objective, double f_star) {
  if (std::isnan(f_star) || f_star == 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::abs((objective - f_star) / f_star);
}

/// Outcome of a solve.
struct SolveResult {
  la::Vector w;              ///< final iterate.
  std::string solver;        ///< solver name ("rc-sfista", ...).
  /// Kernel backend ("scalar" / "simd") active when the solver constructed
  /// this result -- solvers build their SolveResult at solve start, so this
  /// records the backend the trajectory was computed with (trajectories are
  /// backend-dependent; see la/backend.hpp and the per-backend golden
  /// fixtures).  Stamped here once rather than at each solver site.
  std::string backend = la::backend_name(la::active_backend());
  int iterations = 0;        ///< iterations actually executed.
  bool converged = false;    ///< tol-based stop triggered.
  /// Structured failure flag: the solve was rejected (poisoned payload
  /// surviving the recompute fallback, injected rank abort, exhausted
  /// collective retries, non-finite objective) instead of diverging
  /// silently.  `failure_reason` names the cause; `iterations`, `history`,
  /// `conv` and `cost` cover the iterations completed before it, and `w`
  /// holds a partial iterate when the solver keeps one (proximal Newton's
  /// last completed outer iterate; empty for the engine).  Callers should
  /// test ok() before consuming numeric fields.
  bool failed = false;
  std::string failure_reason;
  double objective = 0.0;    ///< F at the final iterate.
  double rel_error = std::numeric_limits<double>::quiet_NaN();
  std::vector<IterationRecord> history;

  [[nodiscard]] bool ok() const { return !failed; }

  /// Factory for a structured failure outcome.
  [[nodiscard]] static SolveResult failure(std::string solver_name,
                                           std::string reason) {
    SolveResult r;
    r.solver = std::move(solver_name);
    r.failed = true;
    r.failure_reason = std::move(reason);
    r.objective = std::numeric_limits<double>::quiet_NaN();
    return r;
  }

  /// alpha-beta-gamma counters accumulated by the run.
  model::CostTracker cost;
  /// Modeled runtime under the options' machine spec.
  double sim_seconds = 0.0;
  /// Real wall time of the (sequential or threaded) execution.
  double wall_seconds = 0.0;
  /// Collective-operation statistics (real backends only).
  dist::CommStats comm_stats;
  /// Per-phase span counts (always) and wall times / payloads (when the
  /// global obs::TraceSession is enabled).  The "allreduce" entry counts
  /// the communication rounds the schedule performed, so it must agree
  /// with comm_stats on real backends and shrink ~k-fold with overlap
  /// depth k (see obs::find_phase and tests/test_obs_trace.cpp).
  obs::PhaseSummary phases;
  /// Per-iteration convergence telemetry (bounded ring; always recorded,
  /// unlike `history`, which honours track_history).
  obs::ConvergenceRing conv;
  /// Health annotation: watchdog alerts attributable to this solve -- the
  /// deterministic end-of-solve convergence scan (stall / divergence /
  /// non-finite; obs::scan_convergence over `conv`) plus any runtime
  /// alerts (straggler, retry storm, ring overflow) the live monitor
  /// raised while the solve ran.  The solve frame (core/engine.hpp) fills
  /// it for every solver.  Empty on healthy runs; does not imply failed (a
  /// stalled solve still returns its iterate).
  std::vector<obs::Alert> alerts;
};

}  // namespace rcf::core
