#include "core/prox_newton.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/momentum.hpp"
#include "data/partition.hpp"
#include "fault/plan.hpp"
#include "exec/pool.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prox/operators.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {

namespace {

using model::Phase;

/// Applies the sampled-Hessian operator z -> (1/mbar) X_S (X_S^T z) using
/// the row-sampled matrix (no d x d materialization).  This is the
/// distributed baseline's gradient kernel: each rank applies its slice and
/// the length-d partial sums are allreduced.
struct SampledHessianOp {
  const sparse::CsrMatrix* xs = nullptr;  // mbar x d
  mutable std::vector<double> tmp;        // length mbar

  void apply(std::span<const double> z, std::span<double> out) const {
    tmp.resize(xs->rows());
    xs->spmv(z, tmp);
    xs->spmv_t(tmp, out);
    la::scal(1.0 / static_cast<double>(xs->rows()), out);
  }

  /// Cost of one apply: two SpMVs.
  [[nodiscard]] double flops() const {
    return 4.0 * static_cast<double>(xs->nnz());
  }
};

}  // namespace

SolveResult solve_proximal_newton(const LassoProblem& problem,
                                  const PnOptions& opts) {
  RCF_CHECK_MSG(opts.max_outer >= 1, "pn: max_outer must be >= 1");
  RCF_CHECK_MSG(opts.inner_iters >= 1, "pn: inner_iters must be >= 1");
  RCF_CHECK_MSG(opts.k >= 1 && opts.s >= 1, "pn: k and s must be >= 1");
  RCF_CHECK_MSG(opts.hessian_sampling_rate > 0.0 &&
                    opts.hessian_sampling_rate <= 1.0,
                "pn: hessian_sampling_rate must be in (0, 1]");
  RCF_CHECK_MSG(opts.damping > 0.0 && opts.damping <= 1.0,
                "pn: damping must be in (0, 1]");
  if (opts.tol > 0.0) {
    RCF_CHECK_MSG(!std::isnan(opts.f_star), "pn: tol requires f_star");
  }
  RCF_CHECK_MSG(opts.threads >= 0, "pn: threads must be >= 0");

  exec::Pool pool(exec::Pool::resolve_width(opts.threads, 1));
  exec::PoolGuard pool_guard(&pool);

  WallTimer wall;
  const std::size_t d = problem.dim();
  const std::size_t m = problem.num_samples();
  const auto mbar = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(opts.hessian_sampling_rate * static_cast<double>(m))));
  const data::Partition partition(m, opts.procs);
  const double lambda = problem.lambda();

  SolveResult result;
  result.solver = opts.inner == PnInnerSolver::kFista ? "pn-fista"
                                                      : "pn-rc-sfista";
  result.cost = model::CostTracker(opts.collective);
  model::CostTracker& cost = result.cost;
  std::uint64_t comm_rounds = 0;

  // Outer-loop phase observation (Alg. 1 lines: gradient, step-size power
  // iteration, inner subproblem solve, damped line search).
  const bool tracing = opts.trace && obs::TraceSession::global().enabled();
  obs::PhaseAgg ph_gradient, ph_power, ph_inner, ph_linesearch;

  la::Vector w(d), grad(d), z(d);
  la::Vector w_prev_outer(d);  // for the convergence ring's step norm

  // RC-SFISTA inner blocks.
  const int k = opts.k;
  std::vector<la::Matrix> h_blocks;
  std::vector<la::Vector> r_blocks;
  if (opts.inner == PnInnerSolver::kRcSfista) {
    for (int j = 0; j < k; ++j) {
      h_blocks.emplace_back(d, d);
      r_blocks.emplace_back(d);
    }
  }
  const MomentumSchedule outer_mu(MomentumRule::kFista);
  const MomentumSchedule inner_mu(MomentumRule::kFista);

  double objective = problem.objective(w.span());

  // Checkpoint resume: restore (outer, w, F(w)) and replay the remaining
  // outer iterations.  All other per-iteration state -- Hessian index
  // sets, power-iteration start vectors, inner momentum streams -- is
  // derived from (seed, outer), so the resumed trajectory is bitwise
  // identical to the uninterrupted one (asserted by tests/test_fault.cpp
  // and the rcf-chaos pn-resume suite).
  int first_outer = 1;
  if (opts.resume_from != nullptr) {
    const PnCheckpoint& ck = *opts.resume_from;
    RCF_CHECK_MSG(ck.w.size() == d,
                  "pn: resume checkpoint dimension mismatch");
    RCF_CHECK_MSG(ck.outer >= 0 && ck.outer <= opts.max_outer,
                  "pn: resume checkpoint outer out of range");
    std::copy(ck.w.begin(), ck.w.end(), w.data());
    objective = ck.objective;
    first_outer = ck.outer + 1;
  }

  bool done = false;
  int outer = first_outer - 1;
  try {
  for (outer = first_outer; outer <= opts.max_outer && !done; ++outer) {
    // Chaos hook: an `abort:at=pn.outer,index=N` plan kills the solve here,
    // before iteration N runs (see fault/plan.hpp).
    fault::iteration_point("pn.outer", static_cast<std::uint64_t>(outer));
    la::copy(w.span(), w_prev_outer.span());
    // Exact gradient of f at w_n: two SpMVs over distributed data plus one
    // allreduce of the length-d partial sums.
    obs::timed_phase(tracing, ph_gradient, "gradient",
                     static_cast<double>(d), [&] {
      problem.full_gradient(w.span(), grad.span());
      cost.add_flops(Phase::kGram,
                     4.0 * static_cast<double>(problem.xt().nnz()) /
                         static_cast<double>(opts.procs));
      cost.add_allreduce(opts.procs, d);
    });
    ++comm_rounds;

    // Line 3 of Alg. 1: the sampled-Hessian index set for this outer
    // iteration (same stream on all ranks; paper §5.5 seeds all processors
    // identically).
    Rng hrng(opts.seed, static_cast<std::uint64_t>(outer) << 20);
    const auto hidx = hrng.sample_without_replacement(m, mbar);
    const sparse::CsrMatrix xs = problem.xt().select_rows(hidx);
    SampledHessianOp hop{&xs, {}};

    // Step size for the quadratic subproblem: the largest eigenvalue of the
    // sampled Hessian, via distributed power iteration (each apply costs two
    // SpMVs per rank and one d-word allreduce).
    la::PowerIterationResult power;
    obs::timed_phase(tracing, ph_power, "power_iter", 0.0, [&] {
      power = la::power_iteration(
          [&hop](std::span<const double> v, std::span<double> out) {
            hop.apply(v, out);
          },
          d, /*max_iters=*/60, /*tol=*/1e-4,
          derive_seed(opts.seed, static_cast<std::uint64_t>(outer)));
      cost.add_flops(Phase::kGram, power.iterations * hop.flops() /
                                       static_cast<double>(opts.procs));
      cost.add_comm(
          power.iterations *
              model::allreduce_cost(opts.collective, opts.procs, d).messages,
          power.iterations *
              model::allreduce_cost(opts.collective, opts.procs, d).words);
    });
    // One d-word allreduce per performed power iteration.
    ph_power.words += static_cast<double>(power.iterations) *
                      static_cast<double>(d);
    comm_rounds += static_cast<std::uint64_t>(power.iterations);
    // Safety margin: RC-SFISTA resamples the Hessian every inner iteration,
    // so individual draws can exceed this estimate.
    const double l_hat = std::max(power.eigenvalue, 1e-300);
    const double gamma =
        (opts.inner == PnInnerSolver::kRcSfista ? 1.0 / (1.5 * l_hat)
                                                : 1.0 / l_hat);
    const double lambda_gamma = lambda * gamma;

    // Inner subproblem solve, timed as one "inner" span (manual timing --
    // wrapping the two ~40-line branches in a lambda would bury them).
    // Payload: per inner iteration the baseline allreduces a d-vector,
    // RC-SFISTA a d x d Hessian block.
    ++ph_inner.count;
    ph_inner.words += static_cast<double>(opts.inner_iters) *
                      (opts.inner == PnInnerSolver::kFista
                           ? static_cast<double>(d)
                           : static_cast<double>(d) * static_cast<double>(d));
    const std::int64_t inner_t0 =
        tracing ? obs::TraceSession::global().now_us() : 0;

    if (opts.inner == PnInnerSolver::kFista) {
      // Baseline (Fig. 7 denominator): deterministic FISTA on the fixed
      // sampled Hessian, with the subproblem gradient H~ (y - w) + grad
      // computed distributed *every inner iteration*: two local SpMVs and
      // one allreduce of a d-vector per iteration.
      la::Vector u(d), u_prev(d), v(d), g(d), theta(d), tmp(d);
      la::copy(w.span(), u.span());
      la::copy(w.span(), u_prev.span());
      for (int n = 1; n <= opts.inner_iters; ++n) {
        const double m_n = outer_mu.mu(n);
        la::waxpby(1.0 + m_n, u.span(), -m_n, u_prev.span(), v.span());
        la::waxpby(1.0, v.span(), -1.0, w.span(), tmp.span());
        hop.apply(tmp.span(), g.span());
        la::axpy(1.0, grad.span(), g.span());
        la::waxpby(1.0, v.span(), -gamma, g.span(), theta.span());
        std::swap(u, u_prev);
        prox::soft_threshold(theta.span(), lambda_gamma, u.span());
        cost.add_flops(Phase::kUpdate,
                       hop.flops() / static_cast<double>(opts.procs) +
                           12.0 * static_cast<double>(d));
        cost.add_allreduce(opts.procs, d);
        ++comm_rounds;
      }
      la::copy(u.span(), z.span());
    } else {
      // RC-SFISTA inner solver: fresh sampled Hessian every inner iteration,
      // k-overlapped allreduces of [H|R] blocks, S-deep Hessian reuse.
      la::Vector u(d), dw_prev(d), v(d), g(d), theta(d), tmp(d), su(d);
      la::copy(w.span(), u.span());
      la::copy(w.span(), v.span());
      int inner_done = 0;
      int update_counter = 0;
      while (inner_done < opts.inner_iters) {
        const int kk = std::min(k, opts.inner_iters - inner_done);
        for (int j = 0; j < kk; ++j) {
          const auto stream =
              (static_cast<std::uint64_t>(outer) << 20) +
              static_cast<std::uint64_t>(inner_done + j + 1);
          Rng rng(opts.seed, stream);
          const auto idx = rng.sample_without_replacement(m, mbar);
          sparse::sampled_gram(problem.xt(), problem.y().span(), idx,
                               h_blocks[static_cast<std::size_t>(j)],
                               r_blocks[static_cast<std::size_t>(j)]);
          charge_sampled_gram(cost, problem.xt(), idx, partition);
        }
        cost.add_allreduce(opts.procs,
                           static_cast<std::uint64_t>(kk) * d * d);
        ++comm_rounds;
        for (int j = 0; j < kk; ++j) {
          const la::Matrix& hj = h_blocks[static_cast<std::size_t>(j)];
          // Subproblem gradient at a point: hj (point - w) + grad.
          auto subgrad = [&](std::span<const double> at,
                             std::span<double> out) {
            la::waxpby(1.0, at, -1.0, w.span(), tmp.span());
            la::gemv(1.0, hj, tmp.span(), 0.0, out);
            la::axpy(1.0, grad.span(), out);
          };
          // S reuse steps per block, each a standard recurrence update on
          // the shared momentum counter (same semantics as the engine).
          for (int s2 = 1; s2 <= opts.s; ++s2) {
            subgrad(v.span(), g.span());
            la::waxpby(1.0, v.span(), -gamma, g.span(), theta.span());
            prox::soft_threshold(theta.span(), lambda_gamma, su.span());
            ++update_counter;
            const double mu_next = inner_mu.mu(update_counter + 1);
            const double mu_cur = inner_mu.mu(update_counter);
            for (std::size_t i = 0; i < d; ++i) {
              const double dw = su[i] - u[i];
              v[i] += (1.0 + mu_next) * dw - mu_cur * dw_prev[i];
              dw_prev[i] = dw;
              u[i] = su[i];
            }
          }
          const double dd = static_cast<double>(d);
          cost.add_flops(Phase::kUpdate,
                         static_cast<double>(opts.s) *
                                 (2.0 * dd * dd + 10.0 * dd) +
                             6.0 * dd);
        }
        inner_done += kk;
      }
      la::copy(u.span(), z.span());
    }

    if (tracing) {
      auto& session = obs::TraceSession::global();
      const std::int64_t inner_t1 = session.now_us();
      ph_inner.us += inner_t1 - inner_t0;
      session.record("inner", inner_t0, inner_t1 - inner_t0);
    }

    // Lines 5-6 of Alg. 1 with a monotonicity safeguard: halve the damping
    // until the objective does not increase (the subproblem Hessian is a
    // random estimate, so an occasional bad direction is expected).
    obs::timed_phase(tracing, ph_linesearch, "linesearch", 0.0, [&] {
      double step = opts.damping;
      la::Vector trial(d);
      double trial_obj = objective;
      for (int attempt = 0; attempt < 30; ++attempt) {
        for (std::size_t i = 0; i < d; ++i) {
          trial[i] = w[i] + step * (z[i] - w[i]);
        }
        trial_obj = problem.objective(trial.span());
        if (trial_obj <= objective) {
          break;
        }
        step *= 0.5;
      }
      if (trial_obj <= objective) {
        std::swap(w, trial);
        objective = trial_obj;
      }
      cost.add_flops(Phase::kUpdate, 3.0 * static_cast<double>(d));
    });

    // Convergence telemetry: one record per outer iteration (objective and
    // exact gradient are both maintained on this path).
    {
      obs::ConvergenceRecord rec;
      rec.iteration = static_cast<std::uint64_t>(outer);
      rec.objective = objective;
      rec.grad_norm = std::sqrt(la::dot(grad.span(), grad.span()));
      double support = 0.0;
      double step_sq = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        support += w[i] != 0.0 ? 1.0 : 0.0;
        const double dw = w[i] - w_prev_outer[i];
        step_sq += dw * dw;
      }
      rec.support = support;
      rec.step = std::sqrt(step_sq);
      result.conv.push(rec);
    }

    const double rel_error = relative_error(objective, opts.f_star);
    if (opts.track_history) {
      result.history.push_back(IterationRecord{
          outer, objective, rel_error, cost.seconds(opts.machine),
          comm_rounds});
    }
    if (opts.tol > 0.0 && !std::isnan(rel_error) && rel_error <= opts.tol) {
      result.converged = true;
      done = true;
    }
    if (opts.checkpoint_sink) {
      PnCheckpoint ck;
      ck.outer = outer;
      ck.objective = objective;
      ck.w.assign(w.data(), w.data() + d);
      opts.checkpoint_sink(ck);
    }
  }
  } catch (const fault::FaultAbort& e) {
    // Structured failure: report the partial iterate and how far the solve
    // got; a checkpoint_sink caller can resume from the last completed
    // outer iteration.
    result.failed = true;
    result.failure_reason = e.what();
  }

  result.w = w;
  result.iterations = result.failed ? outer - 1
                                    : std::min(outer, opts.max_outer);
  result.objective = objective;
  if (!result.failed && !std::isfinite(objective)) {
    result.failed = true;
    result.failure_reason = "pn: non-finite objective at the final iterate";
  }
  result.rel_error = relative_error(result.objective, opts.f_star);
  result.sim_seconds = cost.seconds(opts.machine);
  result.wall_seconds = wall.seconds();
  obs::append_phase(result.phases, "gradient", ph_gradient);
  obs::append_phase(result.phases, "power_iter", ph_power);
  obs::append_phase(result.phases, "inner", ph_inner);
  obs::append_phase(result.phases, "linesearch", ph_linesearch);
  if (tracing) {
    obs::MetricsRegistry local;
    obs::record_solve_metrics(local, result.phases, nullptr);
    dist::SeqComm seq;
    result.fleet = obs::aggregate(local, seq);
    obs::publish(result.fleet, obs::MetricsRegistry::global());
  }
  return result;
}

}  // namespace rcf::core
