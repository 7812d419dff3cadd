// The RC-SFISTA execution engine (paper Alg. 5) and the one solve frame.
//
// One SPMD loop over a dist::Communicator implements the whole RC-SFISTA
// family, because the communication-avoiding reformulations are
// *schedules*, not different arithmetic:
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
// samples the SplitTreeSampler set of (seed, stream_base + n): base 0 for
// the engine and outer << 20 for PN (base + 0 is the outer Hessian draw),
// each rank drawing only its own rows of it.  So runs with different k
// produce bitwise identical iterates -- the identity behind Fig. 2(b) --
// and any P agrees up to reduction order.
//
// Every solver -- the engine, proximal Newton and ProxCoCoA -- is a body
// run inside one solve frame (run_solve), which owns what surrounds the
// loop: the shared-option checks, each rank's RankWorld and cost tracker,
// the iteration recorder (history, convergence ring, progress telemetry,
// tol stop), structured failures, the result tail and the health
// annotation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

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

namespace rcf::dist {
class ThreadGroup;
}

namespace rcf::core {

/// Runs the engine on `problem` under `opts` in the calling thread;
/// `solver_name` labels the result.  Throws InvalidArgument for
/// inconsistent options.
SolveResult run_sfista_engine(const LassoProblem& problem,
                              const SolverOptions& opts,
                              const std::string& solver_name);

/// The engine's step size: 1 over the larger of the full-Gram Lipschitz
/// constant and a probed spectral norm of sampled Gram draws (individual
/// H_S can exceed L substantially when mbar is small relative to d), drawn
/// on streams no iteration uses.  Computed once per solve, outside the
/// ranks, so every P runs the same trajectory.
double auto_step_size(const LassoProblem& problem, const SolverOptions& opts,
                      std::size_t mbar);

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

/// IterationRecord's cumulative machine-independent counters, as a body
/// reports them to Frame::record.
struct Counters {
  std::uint64_t comm_rounds = 0;
  double raw_gram_flops = 0.0;
  double raw_update_flops = 0.0;
  double comm_payload_words = 0.0;
};

/// One rank's view of the solve frame: its world, its share of the result
/// and the iteration recorder.
class Frame {
 public:
  Frame(RankWorld& rank_world, const CommonOptions& opts, SolveResult& result);

  RankWorld& world;
  /// Rank 0's is the solve's result (other ranks get a scratch one).  A
  /// body charges out.cost and leaves its iterate, its final objective and
  /// its phases here; what it left stands after a structured failure.
  SolveResult& out;

  [[nodiscard]] bool is_root() const { return world.comm.rank() == 0; }
  /// Starts the record at w0, after n0 completed iterations.
  void begin(std::span<const double> w0, int n0 = 0);
  /// Whether record() needs F(w) on this rank: rank 0 records history, and
  /// with tol every rank tests it.  A body that does not keep F(w) up to
  /// date evaluates it only then.
  [[nodiscard]] bool wants_objective() const;
  /// Records completed iteration n: its convergence record (objective, the
  /// norm of `grad` unless empty, nnz(w), the step from the last recorded
  /// iterate), a kProgress event, the history record on rank 0 and the
  /// count.  Returns true when tol is reached -- the same answer on every
  /// rank, since the iterates agree bitwise.
  bool record(int n, std::span<const double> w, double objective,
              std::span<const double> grad, const Counters& counters);

 private:
  const CommonOptions& opts_;
  std::vector<double> prev_;  ///< the last recorded iterate
};

/// A solver body: one rank's part of a solve.
using Body = std::function<void(Frame&)>;

/// The solve frame: validates the shared options, runs `body` on every rank
/// of `group` (or inline on a 1-rank world when null), catches structured
/// failures, and fills the result tail -- rel_error, sim_seconds, wall
/// time, comm counters and health alerts.  The result fails
/// on a structured failure or a non-finite final objective.  Throws
/// InvalidArgument for inconsistent options.
SolveResult run_solve(const CommonOptions& opts, const dist::RetryPolicy& retry,
                      std::string solver, dist::ThreadGroup* group,
                      const Body& body);

/// Paper Alg. 5 stages A-D (Fig. 1) on one rank of a RankWorld: A draws the
/// rank's rows of block n's index set (part comm.rank() of data_part); B
/// accumulates the rank's share of its sampled Gram; C sums a chunk of k
/// blocks with one allreduce (posted one chunk ahead under opts.pipeline);
/// D runs the chunk's k*S redundant update sweeps.  A block packs [H|R], or
/// [H] alone under variance reduction, whose update never reads R, and a
/// tail of one Gram flop count per part of cost_part, from which every rank
/// charges the block's critical path after the reduction.  A sampled chunk
/// of at least as many blocks as the rank's pool is wide runs A-B as one
/// pool dispatch, each block built by one task; the iterate and the cost
/// ledger are the same at every width.
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
  // Cumulative counters and phase observation: counts always, wall time
  // when tracing.
  Counters counters{};
  obs::PhaseAgg ph_sampling{}, ph_gram{}, ph_allreduce{}, ph_post{},
      ph_wait{}, ph_update{};
};

}  // namespace rcf::core
