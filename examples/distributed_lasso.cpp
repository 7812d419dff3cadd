// Genuinely distributed (threaded SPMD) lasso solve.
//
// Runs RC-SFISTA across real concurrent ranks (dist::ThreadGroup), each
// owning a block of samples, communicating via rendezvous allreduce -- the
// code path that substitutes the paper's MPI implementation -- and verifies
// the result against the sequential engine.
#include <cstdio>
#include <string>

#include "rcf.hpp"

int main(int argc, char** argv) {
  using namespace rcf;

  CliParser cli("distributed_lasso", "SPMD RC-SFISTA over threaded ranks");
  cli.add_flag("ranks", "number of SPMD ranks (threads)", "4");
  cli.add_flag("m", "samples", "8000");
  cli.add_flag("d", "features", "64");
  cli.add_flag("k", "overlap depth", "4");
  cli.add_flag("algo", "allreduce algorithm (central|rd)", "central");
  cli.add_flag("trace-out", "Chrome trace-event JSON output path", "");
  cli.add_flag("trace-jsonl", "flat JSONL trace output path", "");
  cli.add_flag("metrics-out", "metrics registry JSON output path", "");
  cli.add_flag("live",
               "live telemetry stream path (1 = rcf_live.jsonl; "
               "env RCF_LIVE when flag absent)",
               "");
  cli.add_flag("threads",
               "intra-rank pool threads (0 = auto: hardware/ranks; "
               "default: RCF_THREADS or 1)",
               "-1");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const std::string algo_name = cli.get_string("algo", "central");
  if (algo_name != "central" && algo_name != "rd") {
    std::fprintf(stderr, "distributed_lasso: --algo must be central or rd, "
                         "got '%s'\n", algo_name.c_str());
    return 2;
  }
  std::string live = cli.get_string("live", "");
  if (live == "1") {
    live = "rcf_live.jsonl";
  }
  const obs::ScopedSession obs_session(cli.get_string("trace-out", ""),
                                       cli.get_string("trace-jsonl", ""),
                                       cli.get_string("metrics-out", ""),
                                       std::move(live));

  data::SyntheticOptions gen;
  gen.num_samples = cli.get_int("m", 8000);
  gen.num_features = cli.get_int("d", 64);
  gen.density = 0.3;
  gen.name = "distributed-demo";
  const data::Dataset dataset = data::make_regression(gen);
  std::printf("dataset: %s\n", data::describe(dataset).c_str());

  const core::LassoProblem problem(dataset, 0.1);

  core::SolverOptions opts;
  {
    const std::int64_t t = cli.get_int("threads", -1);
    opts.threads = t >= 0 ? static_cast<int>(t) : exec::threads_from_env(1);
  }
  opts.max_iters = 100;
  opts.sampling_rate = 0.1;
  opts.k = static_cast<int>(cli.get_int("k", 4));
  opts.s = 1;
  opts.track_history = false;

  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const auto algo = algo_name == "rd" ? dist::AllreduceAlgo::kRecursiveDoubling
                                      : dist::AllreduceAlgo::kCentral;
  dist::ThreadGroup group(ranks, algo);

  const auto distributed =
      core::solve_rc_sfista_distributed(problem, opts, group);
  if (!distributed.ok()) {
    // Structured failure (e.g. an RCF_FAULT abort or unrecoverable
    // poison): report the cause instead of comparing a partial iterate.
    std::fprintf(stderr, "distributed solve failed: %s\n",
                 distributed.failure_reason.c_str());
    std::printf("retries      : %llu, faults injected: %llu\n",
                static_cast<unsigned long long>(
                    distributed.comm_stats.retries),
                static_cast<unsigned long long>(
                    distributed.comm_stats.faults_injected));
    return 1;
  }
  // The sequential verification run opts out of tracing so the captured
  // trace holds exactly the distributed execution's spans (one "allreduce"
  // per ThreadComm collective, matching CommStats::allreduce_calls).
  core::SolverOptions seq_opts = opts;
  seq_opts.trace = false;
  const auto sequential = core::solve_rc_sfista(problem, seq_opts);

  const double diff =
      la::max_abs_diff(distributed.w.span(), sequential.w.span());
  std::printf("ranks        : %d (%s allreduce)\n", ranks,
              algo == dist::AllreduceAlgo::kCentral ? "central"
                                                    : "recursive-doubling");
  std::printf("F(w) dist    : %.12f\n", distributed.objective);
  std::printf("F(w) seq     : %.12f\n", sequential.objective);
  std::printf("||w_d - w_s||_inf = %.3e (reduction-order rounding only)\n",
              diff);
  std::printf("allreduces   : %llu calls, %llu words (all ranks), "
              "max payload %llu words\n",
              static_cast<unsigned long long>(
                  distributed.comm_stats.allreduce_calls),
              static_cast<unsigned long long>(
                  distributed.comm_stats.allreduce_words),
              static_cast<unsigned long long>(
                  distributed.comm_stats.max_payload_words));
  std::printf("wall         : %.3f s\n", distributed.wall_seconds);
  if (!distributed.phases.empty()) {
    std::printf("\nrank-0 phases (times measured when tracing or the live "
                "monitor is on):\n%s",
                obs::phase_table(distributed.phases).c_str());
  }
  if (obs_session.active()) {
    std::printf("\ntrace outputs written (open --trace-out in "
                "chrome://tracing or https://ui.perfetto.dev)\n");
  }
  return diff < 1e-8 ? 0 : 1;
}
