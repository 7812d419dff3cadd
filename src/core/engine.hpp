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
// That loop is ChunkLoop.  run_sfista_engine runs it on a 1-rank world,
// charging the cost model for opts.procs modeled ranks; core/distributed.hpp
// runs it on every rank of a ThreadGroup; proximal Newton runs its
// RC-SFISTA inner solves on it with the VR anchor pinned at the outer
// iterate (the Prox-SVRG estimator), for every loss.  Block n of a run
// samples from Rng(seed, stream_base + n): base 0 for the engine and
// outer << 20 for PN (base + 0 is the outer Hessian draw).
// So runs with different k produce bitwise identical iterates -- the
// identity behind Fig. 2(b) -- and any P agrees up to reduction order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "check/checked_comm.hpp"
#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "dist/comm.hpp"
#include "dist/retry.hpp"
#include "exec/pool.hpp"
#include "fault/faulty_comm.hpp"
#include "la/vector.hpp"
#include "obs/trace.hpp"

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

/// Call only inside a catch block: the message of the exception in flight if
/// it is a structured solve failure (an injected abort, exhausted retries or
/// a persistently poisoned payload); anything else is rethrown.
std::string structured_failure();

/// One rank's collective world for a solve: backend <- FaultyComm <-
/// RetryingComm <- CheckedComm, and the rank's exec pool as the ambient
/// pool.  The chaos layer throws transient failures *before* the backend
/// call, so a retried collective enters the rendezvous exactly once and the
/// contract checker above it (RCF_CHECK) records one schedule entry.
struct RankWorld {
  /// A null `backend` is a single-process solve's 1-rank world over `seq`,
  /// whose identity collectives run as auxiliary (no "allreduce" spans)
  /// when `trace` is false.  `threads` is the pool width request.
  RankWorld(dist::Communicator* backend, const dist::RetryPolicy& retry,
            int threads, bool trace);

  dist::SeqComm seq;
  std::optional<dist::Communicator::AuxScope> untraced;
  fault::FaultyComm faulty;
  dist::RetryingComm retrying;
  check::CheckedComm comm;
  exec::Pool pool;
  exec::PoolGuard pool_guard;
};

/// Paper Alg. 5 stages A-D (Fig. 1) on one rank of a RankWorld: A draws
/// block n's index set, the same on every rank; B accumulates the rank's
/// share of its sampled Gram; C sums a chunk of k blocks with one allreduce
/// (posted one chunk ahead under opts.pipeline); D runs the chunk's k*S
/// redundant update sweeps.  A block packs [H|R], or [H] alone under
/// variance reduction, whose update never reads R.  The rank keeps the
/// samples of part comm.rank() of data_part.
struct ChunkLoop {
  /// One run's inputs; none of them is a user option.
  struct Run {
    std::span<const double> start{};  ///< w_0 = v_0
    /// A VR anchor pinned for the run and its exact gradient; left empty
    /// under opts.variance_reduction, one is refreshed every epoch_length.
    std::span<const double> anchor{};
    std::span<const double> anchor_grad{};
    double gamma = 0.0;
    double lambda = 0.0;
    int iters = 0;
    std::uint64_t stream_base = 0;
    /// Per-sample curvature weights of the rank's rows (empty = 1); needs a
    /// pinned anchor, since weighted blocks carry no meaningful R.
    std::span<const double> weights{};
  };

  /// Called after iteration n's sweeps with the iterate and the last
  /// gradient estimate; returning true stops the run there.
  using After = std::function<bool(int n, const la::Vector& w,
                                   const la::Vector& grad)>;
  /// Runs `run` with momentum restarted and returns the final iterate.
  la::Vector run(const Run& run, const After& after = {});

  RankWorld& world;
  const data::Dataset& dataset;
  const SolverOptions& opts;
  std::size_t mbar;
  data::Partition data_part;
  data::Partition cost_part;  ///< the modeled ranks `cost` is charged for
  model::CostTracker& cost;
  // Cumulative machine-independent counters (IterationRecord's) and phase
  // observation: counts always, wall time when tracing.
  std::uint64_t comm_rounds = 0;
  double raw_gram_flops = 0.0, raw_update_flops = 0.0, comm_payload_words = 0.0;
  obs::PhaseAgg ph_sampling{}, ph_gram{}, ph_allreduce{}, ph_post{},
      ph_wait{}, ph_update{};
};

}  // namespace rcf::core
