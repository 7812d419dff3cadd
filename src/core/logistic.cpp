#include "core/logistic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/momentum.hpp"
#include "core/prox_newton.hpp"
#include "data/partition.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "prox/operators.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {

namespace {

using model::Phase;

/// Numerically stable log(1 + exp(z)).
inline double log1p_exp(double z) {
  if (z > 0.0) {
    return z + std::log1p(std::exp(-z));
  }
  return std::log1p(std::exp(z));
}

/// Numerically stable logistic sigmoid.
inline double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

LogisticProblem::LogisticProblem(const data::Dataset& dataset, double lambda)
    : dataset_(&dataset), lambda_(lambda) {
  RCF_CHECK_MSG(lambda >= 0.0, "LogisticProblem: lambda must be >= 0");
  dataset.validate();
  for (std::size_t i = 0; i < dataset.num_samples(); ++i) {
    RCF_CHECK_MSG(dataset.y[i] == 1.0 || dataset.y[i] == -1.0,
                  "LogisticProblem: labels must be +-1");
  }
}

double LogisticProblem::smooth_value(std::span<const double> w) const {
  RCF_CHECK_MSG(w.size() == dim(), "logistic: wrong dimension");
  const std::size_t m = num_samples();
  std::vector<double> z(m);
  dataset_->xt.spmv(w, z);
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    acc += log1p_exp(-dataset_->y[i] * z[i]);
  }
  return acc / static_cast<double>(m);
}

double LogisticProblem::objective(std::span<const double> w) const {
  return smooth_value(w) + lambda_ * la::asum(w);
}

void LogisticProblem::gradient(std::span<const double> w,
                               std::span<double> out,
                               std::span<double> hessian_weights) const {
  RCF_CHECK_MSG(w.size() == dim() && out.size() == dim(),
                "logistic gradient: wrong dimension");
  const std::size_t m = num_samples();
  std::vector<double> z(m);
  dataset_->xt.spmv(w, z);
  // residual_i = -y_i sigma(-y_i z_i); grad = (1/m) X^T' residual.
  for (std::size_t i = 0; i < m; ++i) {
    const double s = sigmoid(-dataset_->y[i] * z[i]);
    if (!hessian_weights.empty()) {
      hessian_weights[i] = s * (1.0 - s);
    }
    z[i] = -dataset_->y[i] * s;
  }
  dataset_->xt.spmv_t(z, out);
  la::scal(1.0 / static_cast<double>(m), out);
}

double LogisticProblem::lipschitz() const {
  if (!lipschitz_) {
    const std::size_t m = num_samples();
    std::vector<double> tmp(m);
    const auto result = la::power_iteration(
        [this, &tmp](std::span<const double> v, std::span<double> hv) {
          dataset_->xt.spmv(v, tmp);
          dataset_->xt.spmv_t(tmp, hv);
          la::scal(0.25 / static_cast<double>(num_samples()), hv);
        },
        dim(), /*max_iters=*/300, /*tol=*/1e-9);
    lipschitz_ = std::max(result.eigenvalue, 1e-300);
  }
  return *lipschitz_;
}

SolveResult solve_logistic_fista(const LogisticProblem& problem,
                                 int max_iters, double rel_change_tol) {
  WallTimer wall;
  const std::size_t d = problem.dim();
  const double gamma = 1.0 / problem.lipschitz();
  const double lambda_gamma = problem.lambda() * gamma;
  const MomentumSchedule mu(MomentumRule::kFista);

  la::Vector w(d), w_prev(d), v(d), grad(d), theta(d);
  double prev_window_obj = problem.objective(w.span());

  SolveResult result;
  result.solver = "logistic-fista";
  constexpr int kWindow = 10;
  int momentum_n = 0;
  int n = 0;
  for (n = 1; n <= max_iters; ++n) {
    ++momentum_n;
    const double m_n = mu.mu(momentum_n);
    la::waxpby(1.0 + m_n, w.span(), -m_n, w_prev.span(), v.span());
    problem.gradient(v.span(), grad.span());
    la::waxpby(1.0, v.span(), -gamma, grad.span(), theta.span());
    std::swap(w, w_prev);
    prox::soft_threshold(theta.span(), lambda_gamma, w.span());

    double dot_restart = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      dot_restart += (v[i] - w[i]) * (w[i] - w_prev[i]);
    }
    if (dot_restart > 0.0) {
      momentum_n = 0;
      la::copy(w.span(), w_prev.span());
    }
    if (n % kWindow == 0) {
      const double obj = problem.objective(w.span());
      const double denom = std::max(std::abs(obj), 1e-300);
      if (std::abs(prev_window_obj - obj) <= rel_change_tol * denom) {
        result.converged = true;
        break;
      }
      prev_window_obj = obj;
    }
  }
  result.w = w;
  result.iterations = std::min(n, max_iters);
  result.objective = problem.objective(w.span());
  result.wall_seconds = wall.seconds();
  return result;
}

SolveResult solve_logistic_prox_newton(const LogisticProblem& problem,
                                       const PnOptions& opts) {
  validate_pn_options(opts, /*checkpointing=*/false);
  WallTimer wall;
  const std::size_t d = problem.dim();
  const std::size_t m = problem.num_samples();
  const sparse::CsrMatrix& xt = problem.dataset().xt;
  const auto mbar = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(opts.hessian_sampling_rate * static_cast<double>(m))));
  const data::Partition partition(m, opts.procs);
  const double lambda = problem.lambda();

  SolveResult result;
  result.solver = opts.inner == PnInnerSolver::kFista ? "logistic-pn-fista"
                                                      : "logistic-pn-rc";
  result.cost = model::CostTracker(opts.collective);
  model::CostTracker& cost = result.cost;
  std::uint64_t comm_rounds = 0;

  RankWorld world(nullptr, dist::RetryPolicy{}, opts.threads, opts.trace);
  // The inner chunk loop runs the VR update; each run pins the anchor at w.
  const SolverOptions inner{.variance_reduction = true, .k = opts.k,
                            .s = opts.s, .seed = opts.seed,
                            .trace = opts.trace, .machine = opts.machine};
  ChunkLoop chunks{world, problem.dataset(), inner, mbar, data::Partition(m, 1),
                   partition, cost};

  la::Vector w(d), grad(d);
  la::Vector weights(m);
  la::Matrix h(d, d);
  const MomentumSchedule mu(MomentumRule::kFista);

  double objective = problem.objective(w.span());

  int completed = 0;  // last completed outer iteration
  try {
  for (int outer = 1; outer <= opts.max_outer; ++outer) {
    // Exact gradient + curvature weights at w (two SpMVs + d-word
    // allreduce).
    problem.gradient(w.span(), grad.span(), weights.span());
    cost.add_flops(Phase::kGram, 4.0 * static_cast<double>(xt.nnz()) /
                                     static_cast<double>(opts.procs));
    cost.add_allreduce(opts.procs, d);
    ++comm_rounds;

    // Step size for the subproblem: lambda_max of the sampled weighted
    // Hessian, via power iteration on the explicit block.
    Rng hrng(opts.seed, (static_cast<std::uint64_t>(outer) << 24) + 1);
    const auto probe_idx = hrng.sample_without_replacement(m, mbar);
    sparse::weighted_sampled_gram(xt, weights.raw(), probe_idx, h);
    charge_sampled_gram(cost, xt, probe_idx, partition);
    cost.add_allreduce(opts.procs, d * d);
    ++comm_rounds;
    const auto power = la::power_iteration(h, 80, 1e-4, opts.seed);
    const double l_hat = std::max(power.eigenvalue, 1e-300);
    const double gamma = opts.inner == PnInnerSolver::kRcSfista
                             ? 1.0 / (1.5 * l_hat)
                             : 1.0 / l_hat;
    const double lambda_gamma = lambda * gamma;

    // Inner solve of the quadratic model
    //   min_z 1/2 (z-w)^T H (z-w) + grad^T (z-w) + lambda |z|_1.
    la::Vector u(d), u_prev(d), vv(d), g(d), theta(d), tmp(d);
    la::copy(w.span(), u.span());
    la::copy(w.span(), u_prev.span());
    if (opts.inner == PnInnerSolver::kFista) {
      for (int n = 1; n <= opts.inner_iters; ++n) {
        const double m_n = mu.mu(n);
        la::waxpby(1.0 + m_n, u.span(), -m_n, u_prev.span(), vv.span());
        la::waxpby(1.0, vv.span(), -1.0, w.span(), tmp.span());
        la::gemv(1.0, h, tmp.span(), 0.0, g.span());
        la::axpy(1.0, grad.span(), g.span());
        la::waxpby(1.0, vv.span(), -gamma, g.span(), theta.span());
        std::swap(u, u_prev);
        prox::soft_threshold(theta.span(), lambda_gamma, u.span());
        const double dd = static_cast<double>(d);
        cost.add_flops(Phase::kUpdate, 2.0 * dd * dd + 12.0 * dd);
      }
    } else {
      // RC inner: the engine's chunk loop on fresh sampled weighted
      // Hessians, anchored at w with gradient grad.
      u = chunks.run({.start = w.span(), .anchor = w.span(),
                      .anchor_grad = grad.span(), .gamma = gamma,
                      .lambda = lambda, .iters = opts.inner_iters,
                      .stream_base =
                          (static_cast<std::uint64_t>(outer) << 24) + 1,
                      .weights = weights.span()});
    }

    // Damped update with monotone safeguard (the logistic objective is not
    // quadratic, so the full Newton step can overshoot).
    double step = opts.damping;
    la::Vector trial(d);
    double trial_obj = objective;
    for (int attempt = 0; attempt < 30; ++attempt) {
      for (std::size_t i = 0; i < d; ++i) {
        trial[i] = w[i] + step * (u[i] - w[i]);
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

    const double rel_error = relative_error(objective, opts.f_star);
    if (opts.track_history) {
      result.history.push_back(IterationRecord{
          outer, objective, rel_error, cost.seconds(opts.machine),
          comm_rounds + chunks.comm_rounds});
    }
    completed = outer;
    if (opts.tol > 0.0 && !std::isnan(rel_error) && rel_error <= opts.tol) {
      result.converged = true;
      break;
    }
  }
  } catch (...) {
    result.failure_reason = structured_failure();
    result.failed = true;
  }

  result.w = w;
  result.iterations = completed;
  result.comm_stats.retries = world.retrying.retries();
  result.comm_stats.faults_injected = world.faulty.faults_injected();
  result.objective = objective;
  result.rel_error = relative_error(result.objective, opts.f_star);
  result.sim_seconds = cost.seconds(opts.machine);
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace rcf::core
