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
#include "data/partition.hpp"
#include "exec/pool.hpp"
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
  RCF_CHECK_MSG(opts.max_outer >= 1, "logistic pn: max_outer must be >= 1");
  RCF_CHECK_MSG(opts.inner_iters >= 1,
                "logistic pn: inner_iters must be >= 1");
  RCF_CHECK_MSG(opts.k >= 1 && opts.s >= 1, "logistic pn: k, s must be >= 1");
  RCF_CHECK_MSG(opts.hessian_sampling_rate > 0.0 &&
                    opts.hessian_sampling_rate <= 1.0,
                "logistic pn: hessian_sampling_rate in (0, 1]");
  if (opts.tol > 0.0) {
    RCF_CHECK_MSG(!std::isnan(opts.f_star), "logistic pn: tol requires f_star");
  }
  RCF_CHECK_MSG(opts.threads >= 0, "logistic pn: threads must be >= 0");

  exec::Pool pool(exec::Pool::resolve_width(opts.threads, 1));
  exec::PoolGuard pool_guard(&pool);

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

  la::Vector w(d), grad(d), z(d);
  la::Vector weights(m);
  la::Matrix h(d, d);
  std::vector<la::Matrix> h_blocks;
  if (opts.inner == PnInnerSolver::kRcSfista) {
    for (int j = 0; j < opts.k; ++j) {
      h_blocks.emplace_back(d, d);
    }
  }
  const MomentumSchedule mu(MomentumRule::kFista);

  double objective = problem.objective(w.span());

  bool done = false;
  int outer = 0;
  for (outer = 1; outer <= opts.max_outer && !done; ++outer) {
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
      // RC inner: fresh sampled weighted Hessians, k-overlapped.
      la::Vector dw_prev(d), su(d);
      la::copy(w.span(), vv.span());
      int inner_done = 0;
      int update_counter = 0;
      while (inner_done < opts.inner_iters) {
        const int kk = std::min(opts.k, opts.inner_iters - inner_done);
        for (int j = 0; j < kk; ++j) {
          Rng rng(opts.seed, (static_cast<std::uint64_t>(outer) << 24) +
                                 static_cast<std::uint64_t>(inner_done + j) +
                                 2);
          const auto idx = rng.sample_without_replacement(m, mbar);
          sparse::weighted_sampled_gram(xt, weights.raw(), idx,
                                        h_blocks[static_cast<std::size_t>(j)]);
          charge_sampled_gram(cost, xt, idx, partition);
        }
        cost.add_allreduce(opts.procs,
                           static_cast<std::uint64_t>(kk) * d * d);
        ++comm_rounds;
        for (int j = 0; j < kk; ++j) {
          const la::Matrix& hj = h_blocks[static_cast<std::size_t>(j)];
          for (int s2 = 1; s2 <= opts.s; ++s2) {
            la::waxpby(1.0, vv.span(), -1.0, w.span(), tmp.span());
            la::gemv(1.0, hj, tmp.span(), 0.0, g.span());
            la::axpy(1.0, grad.span(), g.span());
            la::waxpby(1.0, vv.span(), -gamma, g.span(), theta.span());
            prox::soft_threshold(theta.span(), lambda_gamma, su.span());
            ++update_counter;
            const double mu_next = mu.mu(update_counter + 1);
            const double mu_cur = mu.mu(update_counter);
            for (std::size_t i = 0; i < d; ++i) {
              const double dw = su[i] - u[i];
              vv[i] += (1.0 + mu_next) * dw - mu_cur * dw_prev[i];
              dw_prev[i] = dw;
              u[i] = su[i];
            }
            const double dd = static_cast<double>(d);
            cost.add_flops(Phase::kUpdate, 2.0 * dd * dd + 12.0 * dd);
          }
        }
        inner_done += kk;
      }
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
          comm_rounds});
    }
    if (opts.tol > 0.0 && !std::isnan(rel_error) && rel_error <= opts.tol) {
      result.converged = true;
      done = true;
    }
  }

  result.w = w;
  result.iterations = std::min(outer, opts.max_outer);
  result.objective = objective;
  result.rel_error = relative_error(result.objective, opts.f_star);
  result.sim_seconds = cost.seconds(opts.machine);
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace rcf::core
