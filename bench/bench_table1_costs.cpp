// Table 1: latency, flop, and bandwidth costs of SFISTA vs RC-SFISTA.
//
// Validates the implementation's *measured* counters (flops actually
// performed, messages and words actually charged) against the closed-form
// model of Table 1 / Eq. 24, for a grid of (k, S, P).  The reproduction
// criterion is the ratio measured/predicted ~ 1 for every entry and the
// structural facts: latency falls as 1/k, bandwidth is k-invariant, flops
// grow linearly in S.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace rcf;

  CliParser cli("bench_table1_costs", "Table 1: cost model validation");
  bench::add_common_flags(cli);
  cli.add_flag("iters", "iterations per run", "64");
  cli.add_flag("b", "sampling rate", "0.05");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const auto obs_session = bench::start_observability(cli);
  bench::print_banner(
      "Table 1: Latency, flops, and bandwidth costs for N iterations",
      "SFISTA: L=N logP, F=N d^2 mbar f / P, W=N d^2 logP; RC-SFISTA "
      "divides L by k and adds S d^2 flops per iteration");

  const int iters = static_cast<int>(cli.get_int("iters", 64));
  const double b = cli.get_double("b", 0.05);
  obs::CostLedger ledger(bench::requested_machine(cli));

  for (const auto& name : bench::requested_datasets(cli, "covtype")) {
    const bench::BenchProblem bp = bench::make_bench_problem(cli, name);
    const auto d = static_cast<double>(bp.dataset().num_features());
    const auto m = static_cast<double>(bp.dataset().num_samples());
    const double mbar = std::max(1.0, std::floor(b * m));
    const double fill = bp.dataset().density();
    std::printf("--- %s (d=%g, mbar=%g, f=%.3f, N=%d) ---\n",
                bp.name().c_str(), d, mbar, fill, iters);

    AsciiTable table({"config", "L meas", "L model", "F meas", "F model",
                      "F ratio", "W meas", "W model"});
    struct Config {
      int k, s, p;
    };
    for (const Config& cfg : {Config{1, 1, 16}, Config{4, 1, 16},
                              Config{16, 1, 16}, Config{1, 1, 256},
                              Config{8, 1, 256}, Config{8, 4, 256}}) {
      core::SolverOptions opts;
      opts.threads = bench::requested_threads(cli);
      opts.max_iters = iters;
      opts.sampling_rate = b;
      opts.k = cfg.k;
      opts.s = cfg.s;
      opts.procs = cfg.p;
      opts.track_history = false;
      opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
      const auto result = core::solve_rc_sfista(bp.problem(), opts);

      model::AlgorithmShape shape;
      shape.n_iters = iters;
      shape.d = d;
      shape.m_bar = mbar;
      shape.fill = fill;
      shape.p = cfg.p;
      shape.k = cfg.k;
      shape.s = cfg.s;
      const auto predicted = model::rcsfista_cost(shape);
      // Table 1 keeps the dominant S d^2 term once; the implementation
      // executes S gemvs per iteration, so compare against the per-iteration
      // form for the flops ratio.
      const double f_model =
          shape.n_iters * d * d * mbar * fill / cfg.p +
          static_cast<double>(iters) * cfg.s * 2.0 * d * d;

      const std::string config = "k=" + std::to_string(cfg.k) +
                                 " S=" + std::to_string(cfg.s) +
                                 " P=" + std::to_string(cfg.p);
      table.add_row({config, fmt_g(result.cost.messages(), 4),
                     fmt_g(predicted.latency_msgs, 4),
                     fmt_e(result.cost.flops(), 3), fmt_e(f_model, 3),
                     fmt_f(result.cost.flops() / f_model, 2),
                     fmt_e(result.cost.words(), 3),
                     fmt_e(predicted.bandwidth_words, 3)});

      // Ledger row with the per-iteration flop convention (the f_model
      // above), so the exported model.*_err gauges measure against the
      // same yardstick as the printed F ratio.
      model::CostTriple triple = predicted;
      triple.flops = f_model;
      const double pred_rounds =
          std::ceil(static_cast<double>(iters) / static_cast<double>(cfg.k));
      ledger.add(name + "_k" + std::to_string(cfg.k) + "_s" +
                     std::to_string(cfg.s) + "_p" + std::to_string(cfg.p),
                 triple, pred_rounds, result.cost, &result.phases);
    }
    // Overlap-efficiency row: one 4-rank solve through the chunk-pipelined
    // iallreduce path.  The ledger's `ov p/m` column then pairs the
    // model's predicted hide fraction (pipelined_overlap_fraction) with
    // the measured overlapped_words ratio, and the row's comm seconds
    // compare predicted *exposed* time against the allreduce_wait wall.
    {
      constexpr int kRanks = 4;
      constexpr int kStaleness = 1;
      core::SolverOptions popts;
      popts.threads = 1;
      popts.max_iters = iters;
      popts.sampling_rate = b;
      popts.k = 4;
      popts.s = 1;
      popts.procs = kRanks;
      popts.track_history = false;
      popts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
      popts.pipeline = true;
      popts.staleness = kStaleness;
      dist::ThreadGroup group(kRanks);
      const auto pipe =
          core::solve_rc_sfista_distributed(bp.problem(), popts, group);

      model::AlgorithmShape shape;
      shape.n_iters = iters;
      shape.d = d;
      shape.m_bar = mbar;
      shape.fill = fill;
      shape.p = kRanks;
      shape.k = 4;
      shape.s = 1;
      model::CostTriple triple = model::rcsfista_cost(shape);
      triple.flops = shape.n_iters * d * d * mbar * fill / kRanks +
                     static_cast<double>(iters) * 2.0 * d * d;
      obs::OverlapCredit credit;
      credit.predicted = model::pipelined_overlap_fraction(
          shape, ledger.machine(), kStaleness);
      const double words =
          static_cast<double>(pipe.comm_stats.allreduce_words);
      credit.measured =
          words > 0.0
              ? static_cast<double>(pipe.comm_stats.overlapped_words) / words
              : 0.0;
      ledger.add(name + "_k4_s1_p4_pipe", triple,
                 std::ceil(static_cast<double>(iters) / 4.0), pipe.cost,
                 &pipe.phases, &credit);
    }
    std::printf("%s\n", table.str().c_str());
  }
  std::printf("Cost-model accounting (ledger, %s):\n%s\n",
              ledger.machine().name.c_str(), ledger.table().c_str());
  ledger.export_metrics(obs::MetricsRegistry::global());
  std::printf("F meas counts actual madds (sparse rows: nnz_i^2 per outer\n"
              "product), so F ratio deviates from 1 by the fill-in variance;\n"
              "the structural claims (L ~ 1/k, W independent of k, F linear\n"
              "in S) hold exactly.\n");
  return 0;
}
