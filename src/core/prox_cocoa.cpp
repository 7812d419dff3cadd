#include "core/prox_cocoa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "data/partition.hpp"
#include "la/blas.hpp"
#include "obs/trace.hpp"
#include "prox/operators.hpp"

namespace rcf::core {

namespace {

using model::Phase;

/// ProxCoCoA as a solve-frame body: P simulated workers on the frame's
/// 1-rank world, charged to the cost model for opts.procs.
void prox_cocoa(const LassoProblem& problem, const CocoaOptions& opts,
                Frame& frame) {
  const std::size_t d = problem.dim();
  const std::size_t m = problem.num_samples();
  const auto md = static_cast<double>(m);
  const double lambda = problem.lambda();

  // Feature-major view: row j of `features` is column x_j of X^T.
  const sparse::CsrMatrix features = problem.xt().transposed();
  std::vector<double> col_sq_norm(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    const auto row = features.row(j);
    col_sq_norm[j] = la::dot(row.vals, row.vals);
  }

  const data::Partition fpart(d, opts.procs);
  const auto procs = static_cast<double>(opts.procs);

  model::CostTracker& cost = frame.out.cost;
  std::uint64_t comm_rounds = 0;

  // Round phases: the local coordinate-descent sweeps and the m-word
  // residual aggregation.
  const bool tracing = opts.trace && obs::TraceSession::global().enabled();
  obs::PhaseAgg ph_local, ph_allreduce;

  // Global state: w and the shared residual res = X^T w - y.
  la::Vector w(d);
  frame.begin(w.span());
  la::Vector res(m);
  for (std::size_t i = 0; i < m; ++i) {
    res[i] = -problem.y()[i];
  }

  // Per-worker scratch.
  la::Vector res_local(m);
  la::Vector res_accum(m);  // sum over workers of scaled local updates
  std::vector<double> w_stage(d);

  for (int round = 1; round <= opts.max_rounds; ++round) {
    la::set_zero(res_accum.span());
    std::copy(w.begin(), w.end(), w_stage.begin());
    double max_rank_flops = 0.0;

    // All P workers' sweeps, timed as one "local_solve" phase per round.
    obs::timed_phase(tracing, ph_local, "local_solve", 0.0, [&] {
      for (int p = 0; p < opts.procs; ++p) {
        // Worker p starts from the round-stale shared residual.
        la::copy(res.span(), res_local.span());
        double rank_flops = 0.0;

        // Local coordinate order reshuffled per (round, worker).
        std::vector<std::uint32_t> order;
        order.reserve(fpart.size(p));
        for (std::size_t j = fpart.begin(p); j < fpart.end(p); ++j) {
          order.push_back(static_cast<std::uint32_t>(j));
        }
        Rng rng(opts.seed,
                (static_cast<std::uint64_t>(round) << 16) +
                    static_cast<std::uint64_t>(p));
        std::shuffle(order.begin(), order.end(), rng);

        for (int epoch = 0; epoch < opts.local_epochs; ++epoch) {
          for (const std::uint32_t j : order) {
            const double q = col_sq_norm[j];
            if (q == 0.0) {
              continue;
            }
            const auto col = features.row(j);
            // Local subproblem coordinate step with the quadratic term
            // scaled by sigma' = P:
            //   min_u (sigma' q / 2m)(u - w_j)^2 + (1/m) x_j^T res (u - w_j)
            //         + lambda |u|
            double b = 0.0;
            for (std::size_t i = 0; i < col.nnz(); ++i) {
              b += col.vals[i] * res_local[col.cols[i]];
            }
            b /= md;
            const double a = procs * q / md;
            const double u =
                prox::soft_threshold(w_stage[j] - b / a, lambda / a);
            const double delta = u - w_stage[j];
            if (delta != 0.0) {
              w_stage[j] = u;
              for (std::size_t i = 0; i < col.nnz(); ++i) {
                res_local[col.cols[i]] += delta * col.vals[i];
              }
            }
            rank_flops += 4.0 * static_cast<double>(col.nnz()) + 6.0;
          }
        }

        // Worker p's staged residual delta.
        for (std::size_t i = 0; i < m; ++i) {
          res_accum[i] += res_local[i] - res[i];
        }
        max_rank_flops = std::max(max_rank_flops, rank_flops);
      }
    });

    // One allreduce of the m-word residual update per round.
    obs::timed_phase(tracing, ph_allreduce, "allreduce",
                     static_cast<double>(m), [&] {
      la::axpy(1.0, res_accum.span(), res.span());
      std::copy(w_stage.begin(), w_stage.end(), w.begin());
      cost.add_flops(Phase::kUpdate, max_rank_flops);
      cost.add_allreduce(opts.procs, m);
    });
    ++comm_rounds;

    // Objective from the maintained residual (exact by construction); no
    // gradient on this path.
    const double objective =
        0.5 * la::dot(res.span(), res.span()) / md + lambda * la::asum(w.span());
    if (frame.record(round, w.span(), objective, {},
                     {.comm_rounds = comm_rounds})) {
      break;
    }
  }

  frame.out.objective = problem.objective(w.span());
  frame.out.w = std::move(w);
  obs::append_phase(frame.out.phases, "local_solve", ph_local);
  obs::append_phase(frame.out.phases, "allreduce", ph_allreduce);
}

}  // namespace

SolveResult solve_prox_cocoa(const LassoProblem& problem,
                             const CocoaOptions& opts) {
  RCF_CHECK_MSG(opts.max_rounds >= 1, "cocoa: max_rounds must be >= 1");
  RCF_CHECK_MSG(opts.local_epochs >= 1, "cocoa: local_epochs must be >= 1");
  return run_solve(opts, dist::RetryPolicy{}, "prox-cocoa", nullptr,
                   [&](Frame& frame) { prox_cocoa(problem, opts, frame); });
}

}  // namespace rcf::core
