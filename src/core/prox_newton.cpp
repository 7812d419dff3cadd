#include "core/prox_newton.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/logistic.hpp"
#include "core/momentum.hpp"
#include "data/partition.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "obs/trace.hpp"
#include "prox/operators.hpp"

namespace rcf::core {

namespace {

using model::Phase;

/// Applies the sampled-Hessian operator z -> (1/mbar) X_S D_S X_S^T z using
/// the row-sampled matrix (no d x d materialization), where D_S holds the
/// loss's curvature weights of the sampled rows.  This is the distributed
/// baseline's gradient kernel: each rank applies its slice and the length-d
/// partial sums are allreduced.
struct SampledHessianOp {
  const sparse::CsrMatrix* xs = nullptr;  // mbar x d
  std::span<const double> curvature;      // length m
  std::span<const std::uint32_t> rows;    // xs's rows of X^T, length mbar
  mutable std::vector<double> tmp;        // length mbar

  void apply(std::span<const double> z, std::span<double> out) const {
    tmp.resize(xs->rows());
    xs->spmv(z, tmp);
    for (std::size_t i = 0; i < tmp.size(); ++i) {
      tmp[i] *= curvature[rows[i]];
    }
    xs->spmv_t(tmp, out);
    la::scal(1.0 / static_cast<double>(xs->rows()), out);
  }

  /// Cost of one apply: two SpMVs (the O(mbar) curvature scaling is not
  /// charged).
  [[nodiscard]] double flops() const {
    return 4.0 * static_cast<double>(xs->nnz());
  }
};

/// Throws InvalidArgument for any out-of-range PnOptions field of its own;
/// run_solve checks the shared ones.
void validate_pn_options(const PnOptions& opts) {
  RCF_CHECK_MSG(opts.max_outer >= 1, "pn: max_outer must be >= 1");
  RCF_CHECK_MSG(opts.inner_iters >= 1, "pn: inner_iters must be >= 1");
  RCF_CHECK_MSG(opts.k >= 1 && opts.s >= 1, "pn: k and s must be >= 1");
  RCF_CHECK_MSG(opts.inner == PnInnerSolver::kRcSfista || opts.k == 1,
                "pn: k requires inner = kRcSfista");
  RCF_CHECK_MSG(opts.inner == PnInnerSolver::kRcSfista || opts.s == 1,
                "pn: s requires inner = kRcSfista");
  RCF_CHECK_MSG(opts.hessian_sampling_rate > 0.0 &&
                    opts.hessian_sampling_rate <= 1.0,
                "pn: hessian_sampling_rate must be in (0, 1]");
}

/// Proximal Newton for every smooth loss, as a solve-frame body.  The loss
/// enters only through problem.objective(w) and problem.gradient(w, grad,
/// curvature), whose per-sample curvature weights (1 for least squares,
/// sigma (1 - sigma) for logistic) scale the sampled Hessian.
template <class Problem>
void prox_newton(const Problem& problem, const PnOptions& opts, Frame& frame) {
  const std::size_t d = problem.dim();
  const std::size_t m = problem.num_samples();
  const sparse::CsrMatrix& xt = problem.dataset().xt;
  const auto mbar = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(opts.hessian_sampling_rate * static_cast<double>(m))));
  const double lambda = problem.lambda();
  const SplitTreeSampler hessian_sampler(m, mbar);
  model::CostTracker& cost = frame.out.cost;
  std::uint64_t comm_rounds = 0;

  // The inner chunk loop runs the VR update; each run pins the anchor at w.
  SolverOptions inner;
  static_cast<CommonOptions&>(inner) = opts;
  inner.variance_reduction = true;
  inner.k = opts.k;
  inner.s = opts.s;
  ChunkLoop chunks{frame.world, problem.dataset(), inner, mbar,
                   data::Partition(m, 1), data::Partition(m, opts.procs),
                   cost};

  // Outer-loop phase observation (Alg. 1 lines: gradient, step-size power
  // iteration, inner subproblem solve, damped line search).
  const bool tracing = opts.trace && obs::TraceSession::global().enabled();
  obs::PhaseAgg ph_gradient, ph_power, ph_inner, ph_linesearch;

  // w and F(w) live in the result, so a structured failure reports the
  // last completed outer iteration's.
  la::Vector& w = frame.out.w;
  double& objective = frame.out.objective;
  w = la::Vector(d);
  la::Vector grad(d), z(d), curvature(m);
  const MomentumSchedule outer_mu(MomentumRule::kFista);

  objective = problem.objective(w.span());

  // Checkpoint resume: restore (outer, w, F(w)) and replay the remaining
  // outer iterations.  All other per-iteration state -- Hessian index
  // sets, power-iteration start vectors, inner momentum streams -- is
  // derived from (seed, outer), so the resumed trajectory is bitwise
  // identical to the uninterrupted one (asserted by tests/test_fault.cpp
  // and the rcf-chaos resume suites).
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
  frame.begin(w.span(), first_outer - 1);

  for (int outer = first_outer; outer <= opts.max_outer; ++outer) {
    // Chaos hook: an `abort:at=pn.outer,index=N` plan kills the solve here,
    // before iteration N runs (see fault/plan.hpp).
    fault::iteration_point("pn.outer", static_cast<std::uint64_t>(outer));
    // Exact gradient of f and the curvature weights at w_n: two SpMVs over
    // distributed data plus one allreduce of the length-d partial sums.
    obs::timed_phase(tracing, ph_gradient, "gradient",
                     static_cast<double>(d), [&] {
      problem.gradient(w.span(), grad.span(), curvature.span());
      cost.add_flops(Phase::kGram, 4.0 * static_cast<double>(xt.nnz()) /
                                       static_cast<double>(opts.procs));
      cost.add_allreduce(opts.procs, d);
    });
    ++comm_rounds;

    // Line 3 of Alg. 1: the sampled-Hessian index set for this outer
    // iteration (same stream on all ranks; paper §5.5 seeds all processors
    // identically).
    const auto hidx = hessian_sampler.sample(
        opts.seed, static_cast<std::uint64_t>(outer) << 20);
    const sparse::CsrMatrix xs = xt.select_rows(hidx);
    SampledHessianOp hop{&xs, curvature.span(), hidx, {}};

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

    // Inner subproblem solve.  Payload: per inner iteration the baseline
    // allreduces a d-vector, RC-SFISTA a d x d Hessian block.
    const double dd = static_cast<double>(d);
    const double inner_words = static_cast<double>(opts.inner_iters) *
                               (opts.inner == PnInnerSolver::kFista ? dd
                                                                    : dd * dd);
    obs::timed_phase(tracing, ph_inner, "inner", inner_words, [&] {
      if (opts.inner == PnInnerSolver::kRcSfista) {
        // The engine's chunk loop: a fresh sampled Hessian every inner
        // iteration, k-overlapped allreduces of [H] blocks, S-deep Hessian
        // reuse, anchored at w with gradient grad.
        z = chunks.run({.start = w.span(), .anchor = w.span(),
                        .anchor_grad = grad.span(), .gamma = gamma,
                        .lambda = lambda, .iters = opts.inner_iters,
                        .stream_base = static_cast<std::uint64_t>(outer)
                                       << 20,
                        .weights = curvature.span()});
        return;
      }
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
    });

    // Lines 5-6 of Alg. 1 with a monotonicity safeguard: start at the full
    // step gamma_n = 1 and halve it until the objective does not increase
    // (the subproblem Hessian is a random estimate, so an occasional bad
    // direction is expected).
    obs::timed_phase(tracing, ph_linesearch, "linesearch", 0.0, [&] {
      double step = 1.0;
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

    // One record per outer iteration; objective and exact gradient are both
    // maintained on this path.
    const bool stop = frame.record(
        outer, w.span(), objective, grad.span(),
        {.comm_rounds = comm_rounds + chunks.counters.comm_rounds});
    if (opts.checkpoint_sink) {
      PnCheckpoint ck;
      ck.outer = outer;
      ck.objective = objective;
      ck.w.assign(w.data(), w.data() + d);
      opts.checkpoint_sink(ck);
    }
    if (stop) {
      break;
    }
  }

  obs::append_phase(frame.out.phases, "gradient", ph_gradient);
  obs::append_phase(frame.out.phases, "power_iter", ph_power);
  obs::append_phase(frame.out.phases, "inner", ph_inner);
  obs::append_phase(frame.out.phases, "linesearch", ph_linesearch);
}

/// Runs prox_newton in the solve frame; `name` prefixes the solver label.
template <class Problem>
SolveResult solve_pn(const Problem& problem, const PnOptions& opts,
                     const std::string& name) {
  validate_pn_options(opts);
  return run_solve(
      opts, dist::RetryPolicy{},
      name + (opts.inner == PnInnerSolver::kFista ? "-fista" : "-rc-sfista"),
      nullptr, [&](Frame& frame) { prox_newton(problem, opts, frame); });
}

}  // namespace

SolveResult solve_proximal_newton(const LassoProblem& problem,
                                  const PnOptions& opts) {
  return solve_pn(problem, opts, "pn");
}

SolveResult solve_logistic_prox_newton(const LogisticProblem& problem,
                                       const PnOptions& opts) {
  return solve_pn(problem, opts, "logistic-pn");
}

}  // namespace rcf::core
