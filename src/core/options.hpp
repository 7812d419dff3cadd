// Solver configuration types.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "core/checkpoint.hpp"
#include "dist/retry.hpp"
#include "model/cost.hpp"
#include "model/machine.hpp"

namespace rcf::core {

/// Momentum (acceleration) rule for the t_n / mu_n sequence.
enum class MomentumRule {
  /// Standard FISTA (Beck & Teboulle): t_n = (1 + sqrt(1 + 4 t_{n-1}^2)) / 2.
  kFista,
  /// The rule as literally printed in the paper's Alg. 2-4:
  /// t_n = (1 + sqrt(1 + t_{n-1}^2)) / 2.  Converges to t = 4/3 and loses
  /// acceleration; kept for the ablation study (see DESIGN.md).
  kPaperTypo,
  /// No momentum (mu = 0): plain proximal gradient / ISTA.
  kNone,
};

/// The options every solver shares: SolverOptions, PnOptions and
/// CocoaOptions derive from this, and the solve frame (core/engine.hpp)
/// validates it once for all of them.
struct CommonOptions {
  /// Stop when the relative objective error |F(w)-F*|/|F*| <= tol; requires
  /// f_star.  The paper uses tol = 0.01 for the speedup experiments.
  double tol = 0.0;
  /// Reference optimum F(w*) from the reference solver (the paper computes
  /// it with TFOCS).  NaN disables the relative-error stopping criterion.
  double f_star = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t seed = 42;
  /// Record SolveResult::history, one IterationRecord per iteration.
  bool track_history = true;
  /// When false, this solve skips its phase spans and per-phase wall-time
  /// measurement even if the global obs::TraceSession is enabled (the
  /// phase *counts* in SolveResult::phases are maintained regardless);
  /// ThreadComm ranks still record their collective spans.
  bool trace = true;
  /// Pool threads per rank for the shared-memory kernels (Gram, SpMV,
  /// gemv, symmetrize).  1 = sequential (today's path), 0 = hardware
  /// concurrency divided by the number of SPMD ranks so ThreadComm ranks
  /// don't oversubscribe.  Results are bit-identical at every width.
  int threads = 1;
  /// P, the modeled processor count for cost accounting.  A ThreadGroup
  /// solve models its own size, so there procs must be 1 or the group size.
  int procs = 1;
  model::CollectiveModel collective = model::CollectiveModel::kPaperLogP;
  model::MachineSpec machine = model::comet();
};

/// Options of the FISTA-family solvers (FISTA / SFISTA / RC-SFISTA).
///
/// The defaults run RC-SFISTA with k = S = 1 and full sampling, which is
/// exactly distributed FISTA.  Parameter names follow the paper: b is the
/// sampling rate, k the iteration-overlapping depth, s the Hessian-reuse
/// inner iterations.  The step size is always automatic (auto_step_size).
struct SolverOptions : CommonOptions {
  // -- iteration control ----------------------------------------------------
  int max_iters = 500;  ///< N, total inner iterations.

  // -- momentum ---------------------------------------------------------------
  MomentumRule momentum = MomentumRule::kFista;
  /// O'Donoghue-Candes gradient-based adaptive restart: reset the momentum
  /// counter whenever the momentum direction opposes the latest step.  A
  /// trajectory-determined decision, so the k-invariance of RC-SFISTA is
  /// preserved.
  bool adaptive_restart = false;

  // -- stochastic sampling (SFISTA, §3.1) ------------------------------------
  double sampling_rate = 1.0;  ///< b in (0, 1]; mbar = max(1, floor(b*m)).
  /// Variance reduction (Eq. 9): anchor the sampled gradient at a snapshot
  /// refreshed every epoch_length iterations (Alg. 3's outer loop).
  bool variance_reduction = false;
  /// N of Alg. 3 when variance_reduction is on.  The anchor refresh keeps
  /// the momentum recurrence running (DESIGN.md, interpretation note 2).
  int epoch_length = 50;

  // -- communication-avoiding parameters (§3.2) ------------------------------
  int k = 1;  ///< iteration-overlapping depth (k >= 1).
  int s = 1;  ///< Hessian-reuse inner iterations (S >= 1).

  // -- nonblocking pipeline ---------------------------------------------------
  /// Post the [H|R] chunk reduction with iallreduce_sum and overlap it with
  /// the next chunk's sampling + Gram build (and, through the handle, with
  /// the update sweeps).  At staleness 0 the pipelined schedule consumes
  /// every chunk's own reduced blocks in order, so the iterate trajectory is
  /// bitwise-identical to the blocking path; only the overlap differs.
  /// On the single-process solve the posts complete at once.
  bool pipeline = false;
  /// Bounded staleness S >= 0 (requires pipeline).  With S > 0 the update
  /// sweeps of chunk t reuse the reduced [H|R] blocks of chunk max(t - S, 0)
  /// while chunk t's own reduction is still in flight, hiding up to S chunk
  /// reductions behind compute.  Sound because the sampled Gram blocks are
  /// iterate-independent estimates of the same expected operator; the
  /// trajectory changes (stale curvature) but stays deterministic for a
  /// fixed S -- convergence is golden-fixture-checked.
  int staleness = 0;

  // -- resilience -------------------------------------------------------------
  /// Retry/backoff policy for transient collective failures, at every P
  /// (see dist/retry.hpp).  The defaults absorb up to three
  /// transient faults per collective; retries surface as
  /// CommStats::retries and the "comm.backoff_us" obs counter.
  dist::RetryPolicy retry{};
};

/// Inner solver choice for the proximal Newton driver (Alg. 1).
enum class PnInnerSolver {
  /// Deterministic FISTA on the outer iteration's sampled Hessian (the
  /// Fig. 7 baseline), matrix-free for every loss: two SpMVs and one d-word
  /// allreduce per inner iteration.
  kFista,
  /// RC-SFISTA, the engine's chunk loop: resamples the Hessian every inner
  /// iteration with k-deep iteration overlapping (the paper's proposal).
  kRcSfista,
};

/// Options for the proximal Newton driver.
struct PnOptions : CommonOptions {
  int max_outer = 30;             ///< outer Newton iterations.
  int inner_iters = 40;           ///< inner-solver iterations per subproblem.
  double hessian_sampling_rate = 0.1;  ///< b for the outer Hessian estimate.
  PnInnerSolver inner = PnInnerSolver::kFista;
  int k = 1;                      ///< overlap depth for the RC-SFISTA inner.
  int s = 1;                      ///< Hessian-reuse for the RC-SFISTA inner.

  // -- checkpoint / restore ---------------------------------------------------
  /// Called after every completed outer iteration with the state needed to
  /// resume (see core/checkpoint.hpp).  Null disables checkpointing.
  std::function<void(const PnCheckpoint&)> checkpoint_sink;
  /// Resume from this checkpoint instead of w = 0: the solve replays outer
  /// iterations resume_from->outer + 1 .. max_outer bitwise identically to
  /// the uninterrupted run (per-outer state is re-derived from
  /// (seed, outer)).  The pointee must outlive the solve.
  const PnCheckpoint* resume_from = nullptr;
};

/// Options for the ProxCoCoA baseline (Smith et al. 2015), which always
/// adds the workers' updates (sigma' = P).
struct CocoaOptions : CommonOptions {
  int max_rounds = 200;     ///< communication rounds.
  int local_epochs = 1;     ///< local coordinate-descent passes per round.
};

}  // namespace rcf::core
