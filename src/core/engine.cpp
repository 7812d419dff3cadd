#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "check/options.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/distributed.hpp"
#include "core/momentum.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "prox/operators.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {

namespace {

using model::Phase;

/// Corruption bound for the reduced [H|R] payload guard.  A poisoned
/// contribution is either non-finite (NaN injection, exponent-bit flips
/// that produce Inf/NaN) or astronomically large (a flipped high exponent
/// bit scales a value by ~2^512); legitimate Gram blocks of normalized
/// datasets live many orders of magnitude below this.
constexpr double kPayloadBound = 1e100;

bool payload_sane(std::span<const double> payload) {
  for (const double v : payload) {
    if (!std::isfinite(v) || std::abs(v) > kPayloadBound) {
      return false;
    }
  }
  return true;
}

// The step-size probe's draws sit at the top of the stream space, which no
// iteration stream (engine: 1..N; PN: outer << 20 + j) reaches.
constexpr std::uint64_t kProbeStreamTop = ~std::uint64_t{0};
constexpr int kProbeDraws = 6;

/// Checks the SolverOptions fields of their own; run_solve checks the
/// shared ones.
void validate_options(const LassoProblem& problem, const SolverOptions& opts) {
  RCF_CHECK_MSG(opts.max_iters >= 1, "options: max_iters must be >= 1");
  RCF_CHECK_MSG(opts.k >= 1, "options: k must be >= 1");
  RCF_CHECK_MSG(opts.s >= 1, "options: s must be >= 1");
  RCF_CHECK_MSG(opts.sampling_rate > 0.0 && opts.sampling_rate <= 1.0,
                "options: sampling_rate must be in (0, 1]");
  RCF_CHECK_MSG(opts.staleness >= 0, "options: staleness must be >= 0");
  RCF_CHECK_MSG(opts.staleness == 0 || opts.pipeline,
                "options: staleness > 0 requires pipeline");
  RCF_CHECK_MSG(!opts.variance_reduction || opts.epoch_length >= 1,
                "options: epoch_length must be >= 1 with VR");
  RCF_CHECK_MSG(opts.variance_reduction ||
                    opts.epoch_length == SolverOptions{}.epoch_length,
                "options: epoch_length requires variance_reduction");
  RCF_CHECK_MSG(problem.dim() > 0, "options: empty problem");
}

/// Fills SolveResult::alerts from two sources that never overlap in kind:
/// a deterministic offline scan of the convergence ring for the numeric
/// rules (stall, divergence, non-finite), independent of the live
/// monitor's sampling cadence, plus the runtime-only alerts (straggler,
/// retry storm, ring overflow) the live monitor raised since `mark`.
void annotate_health(SolveResult& result, std::uint64_t mark) {
  obs::LiveMonitor& monitor = obs::LiveMonitor::global();
  const bool live = monitor.running();
  const obs::WatchdogConfig config =
      live ? monitor.watchdog_config() : obs::watchdog_config_from_env();
  for (obs::Alert& alert : obs::scan_convergence(result.conv.ordered(),
                                                 config)) {
    result.alerts.push_back(std::move(alert));
  }
  if (!live) {
    return;
  }
  monitor.sample_now();  // fold the tail of the run before reading alerts
  for (obs::Alert& alert : monitor.alerts_since(mark)) {
    if (alert.kind == obs::AlertKind::kStraggler ||
        alert.kind == obs::AlertKind::kRetryStorm ||
        alert.kind == obs::AlertKind::kRingOverflow) {
      result.alerts.push_back(std::move(alert));
    }
  }
}

/// Call only inside a catch block: the message of the exception in flight if
/// it is a structured solve failure (an injected abort, exhausted retries or
/// a persistently poisoned payload); anything else is rethrown.
std::string structured_failure() {
  try {
    throw;
  } catch (const fault::FaultAbort& e) {
    return e.what();
  } catch (const fault::PoisonedPayload& e) {
    return e.what();
  } catch (const dist::TransientCommFailure& e) {
    return e.what();
  }
}

}  // namespace

RankWorld::RankWorld(dist::Communicator* backend,
                     const dist::RetryPolicy& retry, int threads, bool trace)
    : faulty(backend != nullptr ? *backend : seq, fault::active_plan()),
      retrying(faulty, retry),
      comm(retrying),
      pool(exec::Pool::resolve_width(threads, comm.size())),
      pool_guard(&pool) {
  if (backend == nullptr && !trace) {
    untraced.emplace(seq);
  }
}

la::Vector ChunkLoop::run(const Run& run, const After& after) {
  dist::Communicator& comm = world.comm;
  const sparse::CsrMatrix& xt = dataset.xt;
  const std::size_t d = xt.cols();
  const std::size_t m = xt.rows();
  const int k = opts.k;
  const bool pinned = !run.anchor.empty();
  RCF_DCHECK(!pinned || opts.variance_reduction);
  RCF_DCHECK(run.weights.empty() || pinned);
  const bool refreshing = opts.variance_reduction && !pinned;
  const std::size_t stride = d * d + (opts.variance_reduction ? 0 : d);
  // Each block also carries a tail of one Gram flop count per modeled rank
  // (the rank's own counts, zeros elsewhere): after the reduction every rank
  // holds all of them and charges the critical path.  The tail rides in the
  // chunk's allreduce; the model and the phase words count [H|R] alone.
  const int procs = cost_part.parts();
  RCF_DCHECK(comm.size() == 1 || procs == comm.size());
  const auto tail = static_cast<std::size_t>(procs);
  auto& session = obs::TraceSession::global();
  const bool tracing = opts.trace && session.enabled();
  // The payload guard is armed only when it could matter -- a chaos plan is
  // installed or the verification layer is on -- so fault-free solves never
  // pay the O(payload) scan.
  const bool guard_payload =
      fault::active_plan() != nullptr || check::globally_enabled();
  const double lambda_gamma = run.lambda * run.gamma;

  // Rank-local data block (stage 0 of Fig. 1: X column-partitioned, y
  // row-partitioned); a 1-rank world reads the data in place.
  const std::size_t lo = data_part.begin(comm.rank());
  const std::size_t hi = data_part.end(comm.rank());
  const std::optional<sparse::CsrMatrix> slice =
      comm.size() > 1 ? std::optional(xt.slice_rows(lo, hi)) : std::nullopt;
  const sparse::CsrMatrix& local_xt = slice ? *slice : xt;
  const std::span<const double> local_y =
      dataset.y.span().subspan(lo, hi - lo);

  // Iteration state of the recurrence (paper Eq. 16-17): w_{n-1},
  // dw_{n-1} = w_{n-1} - w_{n-2}, and the extrapolated point v_n, updated
  // incrementally via dv_n = (1+mu_{n+1}) dw_n - mu_n dw_{n-1}.
  la::Vector w(std::vector<double>(run.start.begin(), run.start.end()));
  la::Vector v = w;
  la::Vector dw_prev(d), grad(d), theta(d), u(d), tmp(d);
  la::Matrix h_local(d, d), h(d, d);
  la::Vector r_local(d);
  // The variance-reduction anchor (Alg. 3's w_hat) and its exact gradient:
  // the run's pinned ones, or refreshed into the loop's own buffers.
  la::Vector own_anchor(d), own_anchor_grad(d);
  const std::span<const double> anchor =
      pinned ? run.anchor : own_anchor.span();
  const std::span<const double> anchor_grad =
      pinned ? run.anchor_grad : own_anchor_grad.span();
  std::vector<double> residual(refreshing ? local_xt.rows() : 0);
  std::vector<std::uint32_t> local_idx;
  const SplitTreeSampler sampler(m, mbar);
  const MomentumSchedule outer_mu(opts.momentum);
  // Counts recurrence updates (S per sampled block); drives the momentum
  // schedule relative to the last restart.
  int update_counter = 0;
  int momentum_base = 0;
  int last_anchor_iter = 0;
  bool stop = false;
  bool local_built = false;

  // The k-block working set spills the cache for large k; every use then
  // streams from DRAM (see MachineSpec::beta_mem and DESIGN.md).
  const bool spills =
      static_cast<double>(k) * static_cast<double>(stride) >
      opts.machine.cache_doubles;

  // Counts one collective call into `agg` and, under timed_phase's gate
  // (tracing or the live monitor), times it.  The comm backend's spans are
  // the call's events, so nothing is emitted here.
  const auto timed = [&](obs::PhaseAgg& agg, std::size_t words,
                         const auto& call) {
    ++agg.count;
    agg.words += static_cast<double>(words);
    const bool timing = tracing || obs::live_enabled();
    const std::int64_t t0 = timing ? obs::now_us() : 0;
    call();
    if (timing) {
      agg.us += obs::now_us() - t0;
    }
  };
  // Blocking allreduce of `payload`, of which `words` are charged against
  // the modeled P.
  const auto reduce = [&](std::span<double> payload, std::size_t words) {
    timed(ph_allreduce, words, [&] { comm.allreduce_sum(payload); });
    cost.add_allreduce(procs, words);
  };

  // Refreshes the anchor at the current iterate: each rank's partial full
  // gradient (1/m) X_p (X_p^T w - y_p) -- two SpMVs over its block -- and
  // one d-word allreduce of the partial sums.
  const auto refresh_anchor = [&](int iter_base) {
    la::copy(w.span(), own_anchor.span());
    obs::timed_phase(tracing, ph_gram, "gram", 0.0, [&] {
      local_xt.spmv(own_anchor.span(), residual);
      la::axpy(-1.0, local_y, residual);
      local_xt.spmv_t(residual, own_anchor_grad.span());
      la::scal(1.0 / static_cast<double>(m), own_anchor_grad.span());
    });
    cost.add_flops(Phase::kGram, 4.0 * static_cast<double>(xt.nnz()) /
                                      static_cast<double>(procs));
    reduce(own_anchor_grad.span(), d);
    last_anchor_iter = iter_base;
  };

  const auto chunk_start = [&](int t) { return 1 + t * k; };
  const auto chunk_len = [&](int t) { return std::min(k, run.iters - t * k); };
  // A chunk's [H|R] words, and its collective payload: those plus the tails.
  const auto chunk_words = [&](int t) {
    return static_cast<std::size_t>(chunk_len(t)) * stride;
  };
  const auto payload_words = [&](int t) {
    return static_cast<std::size_t>(chunk_len(t)) * (stride + tail);
  };

  // Stage A for block n: the rank's own rows of its index set, keyed on
  // (seed, stream_base + n) only -- the same set for every k, S and P with
  // no communication to agree on it (paper §5.2) -- drawn by walking only
  // the split tree's nodes over rows [lo, hi).
  const auto sample_block = [&](int n, std::vector<std::uint32_t>& local) {
    sampler.sample(opts.seed, run.stream_base + static_cast<std::uint64_t>(n),
                   lo, hi, local);
  };
  // Stage B: the outer products of the rank's own samples `local` into the
  // accumulators (hb, rb).
  const auto accumulate_block = [&](std::span<const std::uint32_t> local,
                                    la::Matrix& hb, la::Vector& rb) {
    hb.fill(0.0);
    la::set_zero(rb.span());
    sparse::accumulate_sampled_gram(local_xt, local_y, local,
                                    1.0 / static_cast<double>(mbar), hb,
                                    rb.span(), run.weights);
    la::symmetrize_from_upper(hb);
  };
  // Packs block j of chunk t at `dst`: [H|R], or [H] alone under VR, and
  // its tail after the chunk's blocks -- the Gram flops of the rank's
  // samples `local` in each modeled rank's rows.
  const auto pack_block = [&](const la::Matrix& hb, const la::Vector& rb,
                              std::span<const std::uint32_t> local,
                              double* dst, int t, int j) {
    double* block = dst + static_cast<std::size_t>(j) * stride;
    std::copy(hb.data(), hb.data() + d * d, block);
    if (!opts.variance_reduction) {
      std::copy(rb.data(), rb.data() + d, block + d * d);
    }
    double* flops = dst + chunk_words(t) + static_cast<std::size_t>(j) * tail;
    const auto offset = [&](std::size_t i) { return i > lo ? i - lo : 0; };
    for (int p = 0; p < procs; ++p) {
      const auto begin = std::lower_bound(local.begin(), local.end(),
                                          offset(cost_part.begin(p)));
      const auto end =
          std::lower_bound(begin, local.end(), offset(cost_part.end(p)));
      flops[p] = static_cast<double>(
          sparse::sampled_gram_flops(local_xt, {begin, end}));
    }
  };

  // A chunk's blocks are independent (Alg. 5 stages A-B), so a sampled
  // chunk of at least `width` blocks is one pool dispatch: task t builds
  // blocks t, t + width, ... with the kernels inline, each block by one
  // thread in the sequential term order.  Per-task accumulators.
  exec::Pool& pool = world.pool;
  const int width = pool.width();
  struct TaskScratch {
    la::Matrix h;
    la::Vector r;
    std::vector<std::uint32_t> local_idx;
  };
  std::vector<TaskScratch> task_scratch;

  // Stages A + B for chunk t into `dst`.  A pure function of t: the poison
  // fallback re-runs it, and the pipeline runs it for chunk t + 1 while
  // chunk t's reduction is in flight.  The Gram cost is charged from the
  // reduced tails (charge_gram), so the ledger is the same at every pool
  // width and every P.
  const auto build_chunk = [&](int t, double* dst) {
    const int len = chunk_len(t);
    if (width > 1 && mbar < m && len >= width) {
      if (task_scratch.empty()) {
        task_scratch.assign(static_cast<std::size_t>(width),
                            {la::Matrix(d, d), la::Vector(d), {}});
      }
      // Sampling runs inside the tasks, so the chunk's wall time is charged
      // to the gram phase alone; both phases still count one per block.
      obs::PhaseAgg chunk_agg;
      obs::timed_phase(tracing, chunk_agg, "gram", 0.0, [&] {
        pool.run("gram.chunk", [&](int task) {
          const exec::PoolGuard inline_kernels(nullptr);
          TaskScratch& scratch = task_scratch[static_cast<std::size_t>(task)];
          for (int j = task; j < len; j += width) {
            sample_block(chunk_start(t) + j, scratch.local_idx);
            accumulate_block(scratch.local_idx, scratch.h, scratch.r);
            pack_block(scratch.h, scratch.r, scratch.local_idx, dst, t, j);
          }
        });
      });
      ph_sampling.count += static_cast<std::uint64_t>(len);
      ph_gram.count += static_cast<std::uint64_t>(len);
      ph_gram.us += chunk_agg.us;
      return;
    }
    for (int j = 0; j < len; ++j) {
      obs::timed_phase(tracing, ph_sampling, "sampling", 0.0, [&] {
        sample_block(chunk_start(t) + j, local_idx);
      });
      obs::timed_phase(tracing, ph_gram, "gram", 0.0, [&] {
        // Full batch (mbar = m): the local block never changes within a
        // run, so it is built once and only re-packed (bitwise identical
        // to rebuilding).
        if (!local_built) {
          accumulate_block(local_idx, h_local, r_local);
          local_built = mbar == m;
        }
        pack_block(h_local, r_local, local_idx, dst, t, j);
      });
    }
  };

  // Charges chunk t's Gram flops from its reduced tails: slot p of block j
  // holds modeled rank p's flops, so the block's critical path is the
  // slots' maximum and its raw flops their (exact, integer) sum.
  const auto charge_gram = [&](int t, const double* payload) {
    const double* flops = payload + chunk_words(t);
    for (int j = 0; j < chunk_len(t); ++j, flops += tail) {
      cost.add_flops(Phase::kGram, *std::max_element(flops, flops + tail));
      counters.raw_gram_flops += std::accumulate(flops, flops + tail, 0.0);
    }
  };

  // Stage D for chunk t: kk redundant update sweeps, S Hessian-reuse steps
  // each.  `blocks` holds reduced blocks -- chunk t's own, or under bounded
  // staleness an earlier chunk's (at least kk blocks; only the final chunk
  // is short).
  //
  // Hessian-reuse (paper Eq. 20-23): each communicated block is reused for
  // S recurrence steps.  Every reuse step is a *standard* SFISTA update --
  // prox step at the extrapolated point, then the
  // dv = (1+mu)dw - mu dw_prev recurrence -- advancing one shared update
  // counter, so S = 1 reduces bit-exactly to the base algorithm and the
  // per-step stability condition (gamma * ||H_n|| <= 1) is unchanged.
  // Over-solving against a stale sampled block is what degrades large S
  // (the paper's S = 10 observation).
  const auto update_chunk = [&](int t, const double* blocks) {
    for (int j = 0; j < chunk_len(t) && !stop; ++j) {
      const int n = chunk_start(t) + j;
      const double* block = blocks + static_cast<std::size_t>(j) * stride;
      std::copy(block, block + d * d, h.data());

      obs::timed_phase(tracing, ph_update, "update",
                       static_cast<double>(opts.s), [&] {
        for (int s2 = 1; s2 <= opts.s; ++s2) {
          // grad = H v - R (plain Alg. 4 line 8) or, with variance
          // reduction, H (v - anchor) + anchor_grad (Eq. 9 specialized to
          // least squares, where the sampled terms collapse to
          // H_S (v - w_hat)).
          if (opts.variance_reduction) {
            la::waxpby(1.0, v.span(), -1.0, anchor, tmp.span());
            la::gemv(1.0, h, tmp.span(), 0.0, grad.span());
            la::axpy(1.0, anchor_grad, grad.span());
          } else {
            la::gemv(1.0, h, v.span(), 0.0, grad.span());
            la::axpy(-1.0, std::span<const double>(block + d * d, d),
                     grad.span());
          }
          la::waxpby(1.0, v.span(), -run.gamma, grad.span(), theta.span());
          prox::soft_threshold(theta.span(), lambda_gamma, u.span());

          // Recurrence: dw = w_new - w; dv = (1+mu_{u+1}) dw - mu_u dw_prev.
          ++update_counter;
          bool restarted = false;
          if (opts.adaptive_restart) {
            // Restart test: <v - w_new, w_new - w_old> > 0.
            double dot_restart = 0.0;
            for (std::size_t i = 0; i < d; ++i) {
              dot_restart += (v[i] - u[i]) * (u[i] - w[i]);
            }
            if (dot_restart > 0.0) {
              momentum_base = update_counter;
              la::copy(u.span(), v.span());
              la::copy(u.span(), w.span());
              dw_prev.fill(0.0);
              restarted = true;
            }
          }
          if (!restarted) {
            const int nn = update_counter - momentum_base;
            const double mu_next = outer_mu.mu(nn + 1);
            const double mu_cur = outer_mu.mu(nn);
            for (std::size_t i = 0; i < d; ++i) {
              const double dw = u[i] - w[i];
              v[i] += (1.0 + mu_next) * dw - mu_cur * dw_prev[i];
              dw_prev[i] = dw;
              w[i] = u[i];
            }
          }
        }
      });

      // Update-phase flops: S gradient gemvs (2 d^2 each) plus O(d) vector
      // work, performed redundantly on every rank (so not divided by P).
      const double dd = static_cast<double>(d);
      const double update_flops =
          static_cast<double>(opts.s) * (2.0 * dd * dd + 8.0 * dd) + 6.0 * dd;
      cost.add_flops(Phase::kUpdate, update_flops);
      counters.raw_update_flops += update_flops;
      stop = after && after(n, w, grad);
    }
  };

  // Chunk slots.  Blocking uses one; the pipeline keeps a chunk's slot
  // untouched from post (the backend snapshots the payload there) until
  // its first wait (the result lands there) plus, under staleness, until
  // its last stale consumer: lag + 2 slots cover the deepest schedule.
  const int num_chunks = (run.iters + k - 1) / k;
  const int lag = opts.staleness;
  const int nslots = opts.pipeline ? lag + 2 : 1;
  std::vector<std::vector<double>> slots(
      static_cast<std::size_t>(nslots),
      std::vector<double>(static_cast<std::size_t>(k) * (stride + tail)));
  // A slot's handle is valid from its post until its first wait.
  std::vector<dist::CommHandle> handles(static_cast<std::size_t>(nslots));
  const auto slot_of = [&](int t) { return static_cast<std::size_t>(t % nslots); };
  int posted = 0;

  // Poison detection + recovery.  Corruption is injected into the
  // rank-local contribution *before* the reduce, so after the allreduce
  // every rank holds the identical poisoned sums and takes this branch
  // symmetrically: all ranks rebuild their (deterministic) local blocks and
  // re-reduce once through the blocking path (which first quiesces any
  // in-flight posts), yielding the bitwise fault-free payload when the
  // corruption was transient.  Persistent corruption is rejected as a
  // structured failure rather than propagated into the iterate.  Chunk t's
  // Gram cost is charged once its payload passes: twice after a recompute,
  // whose tails also count the poisoned build they repeat.  No rank knows
  // the others' flops before the reduction, so a pipelined solve charges a
  // chunk's Gram at its first wait, while its allreduce is charged at post:
  // a history record then leaves out the Gram of the up to lag + 1 chunks
  // built but not yet waited on, and the drain below charges the rest.
  const auto guard = [&](int t) {
    const std::span<double> payload(slots[slot_of(t)].data(), payload_words(t));
    if (guard_payload && !payload_sane(payload)) {
      build_chunk(t, payload.data());
      reduce(payload, chunk_words(t));
      if (!payload_sane(payload)) {
        throw fault::PoisonedPayload(
            "engine: reduced [H|R] payload still corrupt after recompute "
            "fallback (block_start=" +
            std::to_string(chunk_start(t)) + ")");
      }
      charge_gram(t, payload.data());
    }
    charge_gram(t, payload.data());
  };

  // Chunk t's reduction posted right after its Gram build, so the next
  // chunk's sampling + Gram overlap it.
  const auto post_chunk = [&](int t) {
    const std::size_t slot = slot_of(t);
    double* data = slots[slot].data();
    build_chunk(t, data);
    timed(ph_post, chunk_words(t), [&] {
      handles[slot] = comm.iallreduce_sum({data, payload_words(t)});
    });
    cost.add_allreduce(procs, chunk_words(t));
    ++posted;
  };

  // First wait on chunk t's reduction; idempotent, because the staleness
  // schedule consumes chunk 0 up to S + 1 times.  ph_wait.words counts the
  // [H|R] payload of waits that found the reduction *already complete* --
  // the overlap the cost ledger credits (CommStats::overlapped_words counts
  // the same waits inside the backend, flop tails included).
  const auto wait_chunk = [&](int t) {
    const std::size_t slot = slot_of(t);
    if (!handles[slot].valid()) {
      return;
    }
    timed(ph_wait, handles[slot].test() ? chunk_words(t) : 0,
          [&] { handles[slot].wait(); });
    handles[slot] = dist::CommHandle();
    guard(t);
  };

  if (refreshing) {
    refresh_anchor(0);
  }
  if (opts.pipeline) {
    post_chunk(0);
  }
  for (int t = 0; t < num_chunks && !stop; ++t) {
    if (refreshing && t * k - last_anchor_iter >= opts.epoch_length) {
      refresh_anchor(t * k);
    }
    // Stage C.  Blocking is the pipeline with no lookahead: build, reduce,
    // consume.  The pipeline posts chunk t + 1 first, then consumes chunk
    // max(t - S, 0).
    int src = t;
    if (opts.pipeline) {
      if (t + 1 < num_chunks) {
        post_chunk(t + 1);
      }
      src = std::max(t - lag, 0);
      wait_chunk(src);
    } else {
      build_chunk(t, slots[0].data());
      reduce({slots[0].data(), payload_words(t)}, chunk_words(t));
      guard(t);
    }
    ++counters.comm_rounds;
    counters.comm_payload_words += static_cast<double>(chunk_words(t));
    if (spills) {
      cost.add_mem_words(Phase::kUpdate, (1.0 + opts.s) *
                                             static_cast<double>(chunk_words(t)));
    }
    update_chunk(t, slots[slot_of(src)].data());
  }
  // Posted chunks no update consumed (the last `lag`, or those past a tol
  // stop) are waited anyway, so every rank completes the identical set of
  // collectives and injected completion failures surface.
  for (int t = std::max(posted - nslots, 0); t < posted; ++t) {
    wait_chunk(t);
  }
  return w;
}

Frame::Frame(RankWorld& rank_world, const CommonOptions& opts,
             SolveResult& result)
    : world(rank_world), out(result), opts_(opts) {}

void Frame::begin(std::span<const double> w0, int n0) {
  prev_.assign(w0.begin(), w0.end());
  out.iterations = n0;
}

bool Frame::wants_objective() const {
  return (is_root() && opts_.track_history) || opts_.tol > 0.0;
}

bool Frame::record(int n, std::span<const double> w, double objective,
                   std::span<const double> grad, const Counters& counters) {
  const double rel_error = relative_error(objective, opts_.f_star);
  if (is_root() && opts_.track_history) {
    out.history.push_back(IterationRecord{
        n, objective, rel_error, out.cost.seconds(opts_.machine),
        counters.comm_rounds, counters.raw_gram_flops,
        counters.raw_update_flops, counters.comm_payload_words});
  }
  // Convergence telemetry: O(d) per-iteration summary, recorded into the
  // bounded ring regardless of track_history (objective stays NaN on
  // iterations where it was not evaluated).
  obs::ConvergenceRecord rec;
  rec.iteration = static_cast<std::uint64_t>(n);
  rec.objective = objective;
  if (!grad.empty()) {
    rec.grad_norm = std::sqrt(la::dot(grad, grad));
  }
  double support = 0.0;
  double step_sq = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    support += w[i] != 0.0 ? 1.0 : 0.0;
    const double dw = w[i] - prev_[i];
    step_sq += dw * dw;
  }
  rec.support = support;
  rec.step = std::sqrt(step_sq);
  out.conv.push(rec);
  obs::telemetry_publish(obs::TelemetryKind::kProgress, "iter", n,
                         rec.objective, rec.step);
  la::copy(w, std::span<double>(prev_));
  out.iterations = n;
  out.converged = opts_.tol > 0.0 && rel_error <= opts_.tol;
  return out.converged;
}

SolveResult run_solve(const CommonOptions& opts, const dist::RetryPolicy& retry,
                      std::string solver, dist::ThreadGroup* group,
                      const Body& body) {
  RCF_CHECK_MSG(opts.procs >= 1, "options: procs must be >= 1");
  RCF_CHECK_MSG(group == nullptr || opts.procs == 1 ||
                    opts.procs == group->size(),
                "options: procs must be 1 or the ThreadGroup size");
  RCF_CHECK_MSG(opts.threads >= 0, "options: threads must be >= 0");
  RCF_CHECK_MSG(opts.tol <= 0.0 || !std::isnan(opts.f_star),
                "options: tol-based stopping requires f_star (run the "
                "reference solver first)");
  WallTimer wall;
  // Alerts raised before the solve began are not attributed to it.
  const std::uint64_t health_base = obs::LiveMonitor::global().alert_count();

  SolveResult result;
  result.solver = std::move(solver);
  result.objective = std::numeric_limits<double>::quiet_NaN();
  // Decorator counters of every rank (ThreadGroup::last_run_stats only sums
  // the backend endpoints).
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> faults{0};
  const auto run_rank = [&](dist::Communicator* backend) {
    RankWorld world(backend, retry, opts.threads, opts.trace);
    // Fold the decorator counters into the shared totals on scope exit --
    // including when this rank dies mid-schedule (injected aborts and
    // exhausted retries throw through this frame), so failure results
    // still report how many faults actually fired.
    struct CounterFold {
      RankWorld& world;
      std::atomic<std::uint64_t>& retries;
      std::atomic<std::uint64_t>& faults;
      ~CounterFold() {
        retries += world.retrying.retries();
        faults += world.faulty.faults_injected();
      }
    } fold{world, retries, faults};
    SolveResult scratch;
    Frame frame(world, opts, world.comm.rank() == 0 ? result : scratch);
    frame.out.cost = model::CostTracker(opts.collective);
    body(frame);
  };

  try {
    if (group != nullptr) {
      group->run([&](dist::ThreadComm& comm) { run_rank(&comm); });
    } else {
      run_rank(nullptr);
    }
  } catch (...) {
    // A structured failure keeps what the body left -- and, below, the comm
    // counters and health alerts: the retry storm / straggler trail leading
    // up to it is what a post-mortem wants.
    result.failure_reason = structured_failure();
    result.failed = true;
  }
  if (!result.failed && !std::isfinite(result.objective)) {
    // Divergence (or corrupted inputs) is reported as a structured failure
    // rather than handing the caller a NaN/Inf objective.
    result.failed = true;
    result.failure_reason =
        result.solver + ": non-finite objective at the final iterate";
  }
  result.rel_error = relative_error(result.objective, opts.f_star);
  result.sim_seconds = result.cost.seconds(opts.machine);
  result.wall_seconds = wall.seconds();
  // Backend endpoint counters (none on the 1-rank world) plus the decorator
  // counters they miss; after a failure, ranks that threw before reaching
  // the fold are lost, so retries/faults are a lower bound.
  if (group != nullptr) {
    result.comm_stats = group->last_run_stats();
    if (obs::TraceSession::global().enabled()) {
      // ThreadGroup publishes the raw endpoint counters; mirror the
      // decorator ones so the metrics file agrees with comm_stats.
      auto& registry = obs::MetricsRegistry::global();
      registry.counter("comm.thread.retries").add(retries);
      registry.counter("comm.thread.faults_injected").add(faults);
    }
  }
  result.comm_stats.retries += retries;
  result.comm_stats.faults_injected += faults;
  annotate_health(result, health_base);
  return result;
}

namespace {

/// The engine on `problem`: the chunk loop on each rank from w = 0, every
/// iteration recorded, F(w) evaluated only when the recorder wants it.
SolveResult solve(const LassoProblem& problem, const SolverOptions& opts,
                  std::string solver, dist::ThreadGroup* group) {
  validate_options(problem, opts);
  const std::size_t m = problem.num_samples();
  const auto mbar = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(
             opts.sampling_rate * static_cast<double>(m))));
  const double gamma = auto_step_size(problem, opts, mbar);
  return run_solve(opts, opts.retry, std::move(solver), group,
                   [&](Frame& frame) {
    // A ThreadGroup charges the cost model for its own size; procs is then
    // 1 or that size.
    const int ranks = frame.world.comm.size();
    ChunkLoop loop{frame.world,
                   problem.dataset(),
                   opts,
                   mbar,
                   data::Partition(m, ranks),
                   data::Partition(m, std::max(opts.procs, ranks)),
                   frame.out.cost};
    const la::Vector w0(problem.dim());
    frame.begin(w0.span());
    const auto after = [&](int n, const la::Vector& w, const la::Vector& grad) {
      const double objective = frame.wants_objective()
                                   ? problem.objective(w.span())
                                   : std::numeric_limits<double>::quiet_NaN();
      return frame.record(n, w.span(), objective, grad.span(), loop.counters);
    };
    la::Vector w = loop.run({.start = w0.span(), .gamma = gamma,
                             .lambda = problem.lambda(),
                             .iters = opts.max_iters},
                            after);
    obs::PhaseSummary& phases = frame.out.phases;
    obs::append_phase(phases, "sampling", loop.ph_sampling);
    obs::append_phase(phases, "gram", loop.ph_gram);
    obs::append_phase(phases, "allreduce", loop.ph_allreduce);
    obs::append_phase(phases, "allreduce_post", loop.ph_post);
    obs::append_phase(phases, "allreduce_wait", loop.ph_wait);
    obs::append_phase(phases, "update", loop.ph_update);
    if (frame.is_root()) {
      frame.out.objective = problem.objective(w.span());
    }
    frame.out.w = std::move(w);
  });
}

}  // namespace

double auto_step_size(const LassoProblem& problem, const SolverOptions& opts,
                      std::size_t mbar) {
  const std::size_t m = problem.num_samples();
  const std::size_t d = problem.dim();
  double l_est = problem.lipschitz();
  if (mbar < m && mbar < d) {
    // Rank-deficient regime: a single draw can realize a spectral norm up
    // to the hard bound max_i ||x_i||^2 (attained at mbar = 1), and the
    // momentum recurrence amplifies any transient gamma*||H_S|| > 1
    // excursion without recovery.  Step against the hard bound: safe for
    // every possible draw, at the price of conservatism.
    double row_norm_sq_max = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const auto row = problem.xt().row(i);
      row_norm_sq_max =
          std::max(row_norm_sq_max, la::dot(row.vals, row.vals));
    }
    l_est = std::max(l_est, row_norm_sq_max);
  } else if (mbar < m) {
    // Overdetermined draws (mbar >= d): spectral norms concentrate; probe a
    // few draws on streams of their own (the per-iteration streams stay
    // untouched, preserving the k / S / P trajectory invariance).
    la::Matrix h_probe(d, d);
    la::Vector r_probe(d);
    const SplitTreeSampler sampler(m, mbar);
    for (int probe = 0; probe < kProbeDraws; ++probe) {
      const auto idx = sampler.sample(
          opts.seed, kProbeStreamTop - static_cast<std::uint64_t>(probe));
      sparse::sampled_gram(problem.xt(), problem.y().span(), idx, h_probe,
                           r_probe.span());
      const auto power = la::power_iteration(h_probe, /*max_iters=*/100,
                                             /*tol=*/1e-4, opts.seed);
      l_est = std::max(l_est, 1.35 * power.eigenvalue);
    }
  }
  return 1.0 / l_est;
}

SolveResult run_sfista_engine(const LassoProblem& problem,
                              const SolverOptions& opts,
                              const std::string& solver_name) {
  return solve(problem, opts, solver_name, nullptr);
}

SolveResult solve_rc_sfista_distributed(const LassoProblem& problem,
                                        const SolverOptions& opts,
                                        dist::ThreadGroup& group) {
  return solve(problem, opts, "rc-sfista-distributed", &group);
}

}  // namespace rcf::core
