// rcf-verify CLI: runs the src/check verification fixtures against the
// solver engine and exits nonzero on the first violation.  This is the
// determinism auditor's command-line face plus a checked end-to-end solve:
//
//   rcf-verify                         # all suites on a default problem
//   rcf-verify --suite=partition       # partition sweep only
//   rcf-verify --suite=width           # pool-width replay of the engine
//                                      # and PN: iterates + ledger, bitwise
//   rcf-verify --suite=ranks           # rank replay (tolerance + run-to-run)
//   rcf-verify --suite=solve           # 4-rank solve under RCF_CHECK=1
//   rcf-verify --m=2000 --d=64 --iters=48 --widths=1,2,4 --ranks=1,2,4
//
// Each suite prints PASS/FAIL; failures carry the checker's diagnostic
// (first divergent element, colliding partition parts, or the collective
// contract report).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "check/determinism.hpp"
#include "check/options.hpp"
#include "check/partition.hpp"
#include "common/cli.hpp"
#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "core/prox_newton.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "exec/pool.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"

namespace {

struct VerifyConfig {
  std::size_t m = 1200;
  std::size_t d = 32;
  int iters = 32;
  int k = 4;
  int s = 2;
  std::uint64_t seed = 13;
  std::vector<std::int64_t> widths = {1, 2, 4};
  std::vector<std::int64_t> ranks = {1, 2, 4};
  double rank_tol = 1e-9;
};

rcf::data::Dataset make_dataset(const VerifyConfig& cfg) {
  rcf::data::SyntheticOptions opts;
  opts.num_samples = cfg.m;
  opts.num_features = cfg.d;
  opts.density = 0.4;
  opts.condition = 30.0;
  opts.noise_stddev = 0.05;
  opts.seed = cfg.seed;
  return rcf::data::make_regression(opts);
}

rcf::core::SolverOptions solver_options(const VerifyConfig& cfg,
                                        int threads) {
  rcf::core::SolverOptions opts;
  opts.max_iters = cfg.iters;
  opts.sampling_rate = 0.2;
  opts.k = cfg.k;
  opts.s = cfg.s;
  opts.threads = threads;
  opts.track_history = false;
  return opts;
}

/// Runs one suite, catching checker exceptions into a FAIL line.
bool run_suite(const char* name, const std::function<void()>& body) {
  try {
    body();
    std::printf("PASS  %s\n", name);
    return true;
  } catch (const std::exception& e) {
    std::printf("FAIL  %s\n      %s\n", name, e.what());
    return false;
  }
}

/// Partition sweep: block and triangle ranges must tile [0, n) for every
/// (n, parts) shape the kernels can dispatch.
void verify_partitions() {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{32},
        std::size_t{129}, std::size_t{1 << 12}}) {
    for (const int parts : {1, 2, 3, 5, 8, 16, 64}) {
      rcf::check::audit_partition(
          "verify.block", n, static_cast<std::size_t>(parts),
          [&](std::size_t part) {
            const auto r =
                rcf::exec::block_range(n, parts, static_cast<int>(part));
            return std::pair<std::size_t, std::size_t>{r.begin, r.end};
          });
      rcf::check::audit_partition(
          "verify.triangle", n, static_cast<std::size_t>(parts),
          [&](std::size_t part) {
            const auto r =
                rcf::exec::triangle_range(n, parts, static_cast<int>(part));
            return std::pair<std::size_t, std::size_t>{r.begin, r.end};
          });
    }
  }
}

rcf::core::PnOptions pn_options(const VerifyConfig& cfg, int threads) {
  rcf::core::PnOptions opts;
  opts.max_outer = 3;
  opts.inner_iters = cfg.iters;
  opts.inner = rcf::core::PnInnerSolver::kRcSfista;
  opts.k = cfg.k;
  opts.hessian_sampling_rate = 0.2;
  opts.threads = threads;
  opts.track_history = false;
  return opts;
}

/// A replayed solve: its iterate followed by its modeled time, so the cost
/// ledger is compared along with the arithmetic.
std::vector<double> replayed(const rcf::core::SolveResult& result) {
  std::vector<double> out = result.w.raw();
  out.push_back(result.sim_seconds);
  return out;
}

void verify_widths(const rcf::core::LassoProblem& problem,
                   const VerifyConfig& cfg) {
  std::vector<rcf::check::ReplayRun> engine_runs;
  std::vector<rcf::check::ReplayRun> pn_runs;
  for (const auto width : cfg.widths) {
    const int threads = static_cast<int>(width);
    const std::string tag = "width=" + std::to_string(width);
    engine_runs.push_back({tag, [&problem, &cfg, threads] {
                             return replayed(rcf::core::solve_rc_sfista(
                                 problem, solver_options(cfg, threads)));
                           }});
    pn_runs.push_back({"pn " + tag, [&problem, &cfg, threads] {
                         return replayed(rcf::core::solve_proximal_newton(
                             problem, pn_options(cfg, threads)));
                       }});
  }
  rcf::check::enforce_replay(engine_runs, /*tol=*/0.0);
  rcf::check::enforce_replay(pn_runs, /*tol=*/0.0);
}

void verify_ranks(const rcf::core::LassoProblem& problem,
                  const VerifyConfig& cfg) {
  const auto rank_run = [&problem, &cfg](int ranks, const char* tag) {
    return rcf::check::ReplayRun{
        std::string(tag) + std::to_string(ranks), [&problem, &cfg, ranks] {
          rcf::dist::ThreadGroup group(ranks);
          return rcf::core::solve_rc_sfista_distributed(
                     problem, solver_options(cfg, 1), group)
              .w.raw();
        }};
  };
  // Run-to-run at a fixed rank count must be bitwise.
  const int repeat = static_cast<int>(cfg.ranks.back());
  rcf::check::enforce_replay(
      {rank_run(repeat, "repeat-ranks="), rank_run(repeat, "repeat-ranks=")},
      /*tol=*/0.0);
  // Across rank counts the stage-C summation regroups: tolerance check.
  std::vector<rcf::check::ReplayRun> runs;
  for (const auto ranks : cfg.ranks) {
    runs.push_back(rank_run(static_cast<int>(ranks), "ranks="));
  }
  rcf::check::enforce_replay(runs, cfg.rank_tol);
}

/// End-to-end positive control: a 4-rank solve under the RCF_CHECK=1
/// configuration must finish with zero contract/partition reports and the
/// same iterate as the unchecked solve.
void verify_checked_solve(const rcf::core::LassoProblem& problem,
                          const VerifyConfig& cfg) {
  auto& registry = rcf::obs::MetricsRegistry::global();
  rcf::core::SolveResult plain;
  {
    rcf::check::ScopedCheckEnable off(false);
    rcf::dist::ThreadGroup group(4);
    plain = rcf::core::solve_rc_sfista_distributed(
        problem, solver_options(cfg, 1), group);
  }
  const auto contract_before =
      registry.counter("check.contract_violations").value();
  const auto partition_before =
      registry.counter("check.partition_violations").value();
  rcf::core::SolveResult checked;
  {
    rcf::check::ScopedCheckEnable on(true);
    rcf::dist::ThreadGroup group(4);
    checked = rcf::core::solve_rc_sfista_distributed(
        problem, solver_options(cfg, 1), group);
  }
  const auto contract_after =
      registry.counter("check.contract_violations").value();
  const auto partition_after =
      registry.counter("check.partition_violations").value();
  if (contract_after != contract_before) {
    throw rcf::Error("checked solve raised " +
                     std::to_string(contract_after - contract_before) +
                     " contract violation report(s)");
  }
  if (partition_after != partition_before) {
    throw rcf::Error("checked solve raised " +
                     std::to_string(partition_after - partition_before) +
                     " partition violation report(s)");
  }
  if (registry.counter("check.collectives_checked").value() == 0) {
    throw rcf::Error("checker did not run (0 collectives checked)");
  }
  const double diff =
      rcf::la::max_abs_diff(checked.w.span(), plain.w.span());
  if (diff != 0.0) {
    throw rcf::Error("checked solve diverged from unchecked solve by " +
                     std::to_string(diff) + " (must be bitwise identical)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  rcf::CliParser cli("rcf-verify",
                     "Determinism / partition / contract verification "
                     "fixtures for the solver engine");
  cli.add_flag("suite", "all | partition | width | ranks | solve", "all");
  cli.add_flag("m", "synthetic dataset rows", "1200");
  cli.add_flag("d", "synthetic dataset features", "32");
  cli.add_flag("iters", "solver iterations", "32");
  cli.add_flag("k", "RC-SFISTA overlap parameter", "4");
  cli.add_flag("s", "redundant update sweeps", "2");
  cli.add_flag("seed", "dataset + sampling seed", "13");
  cli.add_flag("widths", "pool widths for the width replay", "1,2,4");
  cli.add_flag("ranks", "rank counts for the rank replay", "1,2,4");
  cli.add_flag("rank-tol", "relative tolerance for the rank replay", "1e-9");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  VerifyConfig cfg;
  cfg.m = static_cast<std::size_t>(cli.get_int("m", 1200));
  cfg.d = static_cast<std::size_t>(cli.get_int("d", 32));
  cfg.iters = static_cast<int>(cli.get_int("iters", 32));
  cfg.k = static_cast<int>(cli.get_int("k", 4));
  cfg.s = static_cast<int>(cli.get_int("s", 2));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 13));
  cfg.widths = cli.get_int_list("widths", cfg.widths);
  cfg.ranks = cli.get_int_list("ranks", cfg.ranks);
  cfg.rank_tol = cli.get_double("rank-tol", cfg.rank_tol);
  const std::string suite = cli.get_string("suite", "all");
  // An unrecognized suite name must not silently select nothing and
  // "pass" — that is exactly the failure mode this binary exists to catch.
  static constexpr const char* kSuites[] = {"all", "partition", "width",
                                            "ranks", "solve"};
  if (std::find_if(std::begin(kSuites), std::end(kSuites),
                   [&suite](const char* s) { return suite == s; }) ==
      std::end(kSuites)) {
    std::fprintf(stderr,
                 "rcf-verify: unknown --suite '%s' "
                 "(expected all|partition|width|ranks|solve)\n",
                 suite.c_str());
    return 2;
  }

  const auto dataset = make_dataset(cfg);
  const rcf::core::LassoProblem problem(dataset, 0.01);

  bool ok = true;
  const auto want = [&suite](const char* name) {
    return suite == "all" || suite == name;
  };
  if (want("partition")) {
    ok = run_suite("partition sweep (block + triangle ranges)",
                   verify_partitions) &&
         ok;
  }
  if (want("width")) {
    ok = run_suite("width replay (engine + PN iterates and ledger, bitwise)",
                   [&] { verify_widths(problem, cfg); }) &&
         ok;
  }
  if (want("ranks")) {
    ok = run_suite("rank replay (run-to-run bitwise, cross-rank tolerance)",
                   [&] { verify_ranks(problem, cfg); }) &&
         ok;
  }
  if (want("solve")) {
    ok = run_suite("checked 4-rank solve (RCF_CHECK=1, zero reports)",
                   [&] { verify_checked_solve(problem, cfg); }) &&
         ok;
  }
  return ok ? 0 : 1;
}
