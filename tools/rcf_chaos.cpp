// rcf-chaos CLI: chaos soak harness for the fault-injection / resilience
// layer (src/fault).  Runs a matrix of declarative fault plans against
// 4-rank distributed solves, with the verification layer (RCF_CHECK) armed,
// and asserts the resilience contract:
//
//   * recoverable plans (stragglers, rendezvous skew, transient collective
//     failures absorbed by retry, one-shot payload poisoning absorbed by
//     the recompute fallback) must converge to the *bitwise identical*
//     iterate as the fault-free baseline, with zero contract-checker
//     reports -- legitimate retries are not allowed to trip the checker;
//   * fatal plans (hard rank aborts, retry exhaustion, persistent payload
//     poisoning) must surface a structured SolveResult::failure with a
//     diagnostic reason -- never a crash, a hang, or a silently wrong w;
//   * an injected proximal-Newton outer-loop abort plus checkpoint/restore
//     must resume to the bitwise identical final iterate, for least squares
//     and for logistic regression;
//   * straggler plans aimed at *in-flight* nonblocking collectives
//     (stage=wait skew/delay against the chunk-pipelined iallreduce path)
//     must neither perturb the iterate nor trip the contract checker --
//     a late wait is a performance event, not a correctness event.
//
//   rcf-chaos                      # full matrix
//   rcf-chaos --suite=recover      # recoverable plans only
//   rcf-chaos --suite=fatal        # fatal plans only
//   rcf-chaos --suite=resume       # PN abort + checkpoint resume, both losses
//   rcf-chaos --suite=straggler    # stage=wait plans vs the pipelined path
//   rcf-chaos --list               # print the plan matrix and exit
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/options.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/distributed.hpp"
#include "core/logistic.hpp"
#include "core/problem.hpp"
#include "core/prox_newton.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"

namespace {

struct ChaosConfig {
  std::size_t m = 1200;
  std::size_t d = 32;
  int iters = 32;
  int k = 4;
  int s = 2;
  int ranks = 4;
  std::uint64_t seed = 13;
};

/// One entry of the chaos matrix.  `expect_faults` / `expect_retries`
/// assert that the plan actually exercised the layer it targets (a matrix
/// entry whose plan never fires would silently test nothing).
struct ChaosCase {
  const char* name;
  const char* plan;
  bool fatal;
  bool expect_faults = true;
  bool expect_retries = false;
  /// Run through the chunk-pipelined iallreduce path (straggler suite).
  bool pipelined = false;
  /// Pipeline staleness S.  Cases with S = 0 must match the *blocking*
  /// fault-free baseline bitwise; S > 0 cases are compared against a
  /// fault-free pipelined run at the same S (bounded staleness is
  /// deterministic, so a straggler must not change the iterate either way).
  int staleness = 0;
};

// The soak matrix.  Call indices are per-rank engine-collective indices
// (the 32-iteration / k=4 solve performs 8 stage-C allreduces, 0..7).
constexpr ChaosCase kMatrix[] = {
    // -- recoverable ---------------------------------------------------------
    {"delay-straggler", "delay:rank=1,us=2000,every=3", false},
    {"skew-all-ranks", "skew:us=1500,seed=7", false},
    {"transient-single", "transient:rank=2,call=4", false, true, true},
    {"transient-repeat", "transient:rank=0,call=2,count=2", false, true, true},
    {"transient-two-ranks", "transient:rank=3,call=1;transient:rank=1,call=6",
     false, true, true},
    {"nan-poison-once", "nan:rank=1,call=3,words=4", false},
    {"bitflip-exponent", "bitflip:rank=2,call=5,word=7,bit=62", false},
    {"combo",
     "delay:rank=0,us=500,every=4;transient:rank=2,call=3;nan:rank=3,call=6",
     false, true, true},
    // -- fatal ---------------------------------------------------------------
    {"abort-hard", "abort:rank=2,call=4", true},
    {"transient-exhaust", "transient:rank=1,call=2,count=99", true, true,
     true},
    {"nan-persistent", "nan:rank=0,every=1,count=64,words=8", true},
};

// Straggler matrix: plans aimed at the nonblocking engine.  stage=wait
// specs fire when a rank first waits on an *in-flight* iallreduce handle
// (the 32-iteration / k=4 pipelined solve posts 8 chunk reductions, wait
// call indices 0..7); stage=post specs skew the posting rank instead.
// Either way the reduction result is untouched, so recoverable cases must
// stay bitwise identical to their fault-free baseline with a clean
// contract checker.
constexpr ChaosCase kStragglerMatrix[] = {
    // -- recoverable ---------------------------------------------------------
    {"wait-straggler", "delay:rank=1,us=2000,every=2,stage=wait", false, true,
     false, true, 0},
    {"wait-skew-all", "skew:us=1500,seed=11,stage=wait", false, true, false,
     true, 0},
    {"post-straggler", "delay:rank=2,us=1500,every=3,stage=post", false, true,
     false, true, 0},
    {"wait-transient", "transient:rank=3,call=1,stage=wait", false, true,
     true, true, 0},
    {"stale-wait-skew", "skew:us=2000,seed=5,stage=wait", false, true, false,
     true, 1},
    {"stale-wait-straggler", "delay:rank=0,us=2500,every=2,stage=wait", false,
     true, false, true, 2},
    // -- fatal ---------------------------------------------------------------
    {"wait-abort", "abort:rank=0,call=2,stage=wait", true, true, false, true,
     0},
};

rcf::data::Dataset make_dataset(const ChaosConfig& cfg, bool binary_labels) {
  rcf::data::SyntheticOptions opts;
  opts.num_samples = cfg.m;
  opts.num_features = cfg.d;
  opts.density = 0.4;
  opts.condition = 30.0;
  opts.noise_stddev = 0.05;
  opts.binary_labels = binary_labels;
  opts.seed = cfg.seed;
  return rcf::data::make_regression(opts);
}

rcf::core::SolverOptions solver_options(const ChaosConfig& cfg) {
  rcf::core::SolverOptions opts;
  opts.max_iters = cfg.iters;
  opts.sampling_rate = 0.2;
  opts.k = cfg.k;
  opts.s = cfg.s;
  opts.track_history = false;
  // Keep the soak fast: injected transients back off 50us, not the
  // production default.
  opts.retry.backoff_us = 50;
  return opts;
}

bool run_suite(const std::string& name, const std::function<void()>& body) {
  try {
    body();
    std::printf("PASS  %s\n", name.c_str());
    return true;
  } catch (const std::exception& e) {
    std::printf("FAIL  %s\n      %s\n", name.c_str(), e.what());
    return false;
  }
}

struct CheckerCounters {
  std::uint64_t contract = 0;
  std::uint64_t partition = 0;
  std::uint64_t checked = 0;

  static CheckerCounters snapshot() {
    auto& reg = rcf::obs::MetricsRegistry::global();
    return {reg.counter("check.contract_violations").value(),
            reg.counter("check.partition_violations").value(),
            reg.counter("check.collectives_checked").value()};
  }
};

/// Asserts a run raised no checker reports and actually exercised the
/// checker (collectives_checked advanced).
void require_clean_checker(const CheckerCounters& before) {
  const auto after = CheckerCounters::snapshot();
  if (after.contract != before.contract) {
    throw rcf::Error("contract checker raised " +
                     std::to_string(after.contract - before.contract) +
                     " report(s) -- fault layer must not trip the checker");
  }
  if (after.partition != before.partition) {
    throw rcf::Error("partition auditor raised " +
                     std::to_string(after.partition - before.partition) +
                     " report(s)");
  }
  if (after.checked == before.checked) {
    throw rcf::Error("contract checker did not run (0 collectives checked)");
  }
}

void run_case(const ChaosCase& c, const ChaosConfig& cfg,
              const rcf::core::LassoProblem& problem,
              const rcf::core::SolveResult& baseline) {
  const auto before = CheckerCounters::snapshot();
  auto opts = solver_options(cfg);
  opts.pipeline = c.pipelined;
  opts.staleness = c.staleness;
  rcf::fault::ScopedFaultPlan scoped{std::string_view(c.plan)};
  rcf::dist::ThreadGroup group(cfg.ranks);
  const auto result =
      rcf::core::solve_rc_sfista_distributed(problem, opts, group);

  if (c.fatal) {
    if (result.ok()) {
      throw rcf::Error("fatal plan produced an ok() result -- expected a "
                       "structured failure");
    }
    if (result.failure_reason.empty()) {
      throw rcf::Error("structured failure carries no failure_reason");
    }
  } else {
    if (!result.ok()) {
      throw rcf::Error("recoverable plan failed: " + result.failure_reason);
    }
    const double diff =
        rcf::la::max_abs_diff(result.w.span(), baseline.w.span());
    if (diff != 0.0) {
      throw rcf::Error("recovered iterate diverged from fault-free baseline "
                       "by " +
                       std::to_string(diff) + " (must be bitwise identical)");
    }
    require_clean_checker(before);
  }
  if (c.expect_faults && result.comm_stats.faults_injected == 0) {
    throw rcf::Error("plan never fired (faults_injected == 0) -- the case "
                     "tests nothing");
  }
  if (c.expect_retries && result.comm_stats.retries == 0) {
    throw rcf::Error("transient plan absorbed no retries (retries == 0)");
  }
}

/// One proximal Newton solve of a fixed problem.
using PnSolve =
    std::function<rcf::core::SolveResult(const rcf::core::PnOptions&)>;

/// PN outer-loop abort + checkpoint/restore: the resumed solve must replay
/// the remaining outer iterations bitwise identically.
void run_resume_suite(const PnSolve& solve, const ChaosConfig& cfg) {
  rcf::core::PnOptions opts;
  opts.max_outer = 8;
  opts.inner_iters = 16;
  opts.inner = rcf::core::PnInnerSolver::kRcSfista;
  opts.k = 2;
  opts.s = 2;
  opts.hessian_sampling_rate = 0.2;
  opts.seed = cfg.seed;
  opts.track_history = false;

  const auto baseline = solve(opts);
  if (!baseline.ok()) {
    throw rcf::Error("fault-free PN baseline failed: " +
                     baseline.failure_reason);
  }

  // Interrupted run: abort before outer iteration 6; the sink keeps the
  // last completed checkpoint (outer == 5).
  rcf::core::PnCheckpoint last;
  opts.checkpoint_sink = [&last](const rcf::core::PnCheckpoint& ck) {
    last = ck;
  };
  rcf::core::SolveResult interrupted;
  {
    rcf::fault::ScopedFaultPlan scoped{
        std::string_view("abort:at=pn.outer,index=6")};
    interrupted = solve(opts);
  }
  if (interrupted.ok()) {
    throw rcf::Error("injected pn.outer abort did not fail the solve");
  }
  if (interrupted.iterations != 5 || last.outer != 5) {
    throw rcf::Error("abort at outer 6 left iterations=" +
                     std::to_string(interrupted.iterations) +
                     ", checkpoint outer=" + std::to_string(last.outer) +
                     " (expected 5/5)");
  }

  // Round-trip the checkpoint through its JSON serialization, as a restart
  // from disk would.
  const rcf::core::PnCheckpoint restored =
      rcf::core::checkpoint_from_json(rcf::core::to_json(last));

  opts.checkpoint_sink = nullptr;
  opts.resume_from = &restored;
  const auto resumed = solve(opts);
  if (!resumed.ok()) {
    throw rcf::Error("resumed PN solve failed: " + resumed.failure_reason);
  }
  const double diff =
      rcf::la::max_abs_diff(resumed.w.span(), baseline.w.span());
  if (diff != 0.0) {
    throw rcf::Error("resumed iterate diverged from uninterrupted run by " +
                     std::to_string(diff) + " (must be bitwise identical)");
  }
  if (resumed.objective != baseline.objective) {
    throw rcf::Error("resumed objective differs from uninterrupted run");
  }
}

}  // namespace

int main(int argc, char** argv) {
  rcf::CliParser cli("rcf-chaos",
                     "Chaos soak harness: fault-plan matrix against 4-rank "
                     "solves with the verification layer armed");
  cli.add_flag("suite", "all | recover | fatal | resume | straggler", "all");
  cli.add_flag("m", "synthetic dataset rows", "1200");
  cli.add_flag("d", "synthetic dataset features", "32");
  cli.add_flag("iters", "solver iterations", "32");
  cli.add_flag("k", "RC-SFISTA overlap parameter", "4");
  cli.add_flag("s", "redundant update sweeps", "2");
  cli.add_flag("ranks", "SPMD rank count", "4");
  cli.add_flag("seed", "dataset + sampling seed", "13");
  cli.add_flag("list", "print the plan matrix and exit", "0");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  ChaosConfig cfg;
  cfg.m = static_cast<std::size_t>(cli.get_int("m", 1200));
  cfg.d = static_cast<std::size_t>(cli.get_int("d", 32));
  cfg.iters = static_cast<int>(cli.get_int("iters", 32));
  cfg.k = static_cast<int>(cli.get_int("k", 4));
  cfg.s = static_cast<int>(cli.get_int("s", 2));
  cfg.ranks = static_cast<int>(cli.get_int("ranks", 4));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 13));
  const std::string suite = cli.get_string("suite", "all");
  static constexpr const char* kSuites[] = {"all", "recover", "fatal",
                                            "resume", "straggler"};
  if (std::find_if(std::begin(kSuites), std::end(kSuites),
                   [&suite](const char* s) { return suite == s; }) ==
      std::end(kSuites)) {
    std::fprintf(stderr,
                 "rcf-chaos: unknown --suite '%s' "
                 "(expected all|recover|fatal|resume|straggler)\n",
                 suite.c_str());
    return 2;
  }

  if (cli.get_int("list", 0) != 0) {
    for (const ChaosCase& c : kMatrix) {
      std::printf("%-22s %-7s %s\n", c.name, c.fatal ? "fatal" : "recover",
                  rcf::fault::describe(rcf::fault::parse_fault_plan(c.plan))
                      .c_str());
    }
    for (const ChaosCase& c : kStragglerMatrix) {
      std::printf("%-22s %-7s [pipelined S=%d] %s\n", c.name,
                  c.fatal ? "fatal" : "recover", c.staleness,
                  rcf::fault::describe(rcf::fault::parse_fault_plan(c.plan))
                      .c_str());
    }
    return 0;
  }

  const rcf::data::Dataset dataset = make_dataset(cfg, false);
  const rcf::core::LassoProblem problem(dataset, 0.01);

  // The whole soak runs with the verification layer armed (the acceptance
  // bar is "chaos matrix passes under RCF_CHECK=1 with zero checker false
  // positives"), and with an empty scoped plan quieting any ambient
  // RCF_FAULT so the baseline is genuinely fault-free.
  rcf::check::ScopedCheckEnable check_on(true);
  rcf::fault::ScopedFaultPlan quiet{rcf::fault::FaultPlan{}};

  bool ok = true;
  const auto want = [&suite](const char* name) {
    return suite == "all" || suite == name;
  };

  if (want("recover") || want("fatal")) {
    rcf::dist::ThreadGroup group(cfg.ranks);
    const auto baseline = rcf::core::solve_rc_sfista_distributed(
        problem, solver_options(cfg), group);
    if (!baseline.ok()) {
      std::printf("FAIL  fault-free baseline\n      %s\n",
                  baseline.failure_reason.c_str());
      return 1;
    }
    for (const ChaosCase& c : kMatrix) {
      if (!want(c.fatal ? "fatal" : "recover")) {
        continue;
      }
      ok = run_suite(std::string(c.fatal ? "fatal   " : "recover ") + c.name +
                         "  [" + c.plan + "]",
                     [&] { run_case(c, cfg, problem, baseline); }) &&
           ok;
    }
  }
  if (want("straggler")) {
    // Fault-free baselines: the blocking iterate doubles as the S = 0
    // pipelined baseline (the pipeline is bitwise identical to blocking at
    // staleness 0); S > 0 cases compare against a fault-free pipelined run
    // at the same S.
    std::vector<std::pair<int, rcf::core::SolveResult>> baselines;
    const auto baseline_for = [&](int staleness) -> rcf::core::SolveResult& {
      for (auto& [s, b] : baselines) {
        if (s == staleness) {
          return b;
        }
      }
      auto opts = solver_options(cfg);
      opts.pipeline = staleness > 0;
      opts.staleness = staleness;
      rcf::dist::ThreadGroup group(cfg.ranks);
      baselines.emplace_back(staleness, rcf::core::solve_rc_sfista_distributed(
                                            problem, opts, group));
      return baselines.back().second;
    };
    for (const ChaosCase& c : kStragglerMatrix) {
      const auto& baseline = baseline_for(c.staleness);
      if (!baseline.ok()) {
        std::printf("FAIL  straggler baseline (S=%d)\n      %s\n",
                    c.staleness, baseline.failure_reason.c_str());
        ok = false;
        continue;
      }
      ok = run_suite(std::string(c.fatal ? "fatal   " : "straggle ") +
                         c.name + "  [" + c.plan + "]",
                     [&] { run_case(c, cfg, problem, baseline); }) &&
           ok;
    }
  }
  if (want("resume")) {
    // Both losses run the same PN code; each must resume bitwise.
    const rcf::data::Dataset binary = make_dataset(cfg, true);
    const rcf::core::LogisticProblem logistic(binary, 0.002);
    const std::pair<const char*, PnSolve> solves[] = {
        {"pn", [&](const rcf::core::PnOptions& o) {
           return rcf::core::solve_proximal_newton(problem, o);
         }},
        {"logistic-pn", [&](const rcf::core::PnOptions& o) {
           return rcf::core::solve_logistic_prox_newton(logistic, o);
         }}};
    for (const auto& [name, solve] : solves) {
      ok = run_suite(std::string("resume  ") + name +
                         "-checkpoint  [abort:at=pn.outer,index=6]",
                     [&] { run_resume_suite(solve, cfg); }) &&
           ok;
    }
  }
  return ok ? 0 : 1;
}
