#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace rcf::bench {

namespace {

// Bump when anything that affects the reference optimum changes (generator,
// reference solver, lambda selection).
constexpr const char* kCacheVersion = "v4";

std::filesystem::path cache_path(const std::string& dataset, double scale,
                                 double lambda_ratio, std::uint64_t seed) {
  std::ostringstream name;
  name << "rcf_ref_" << kCacheVersion << "_" << dataset << "_" << scale << "_"
       << lambda_ratio << "_" << seed << ".txt";
  const char* env = std::getenv("RCF_BENCH_CACHE_DIR");
  const auto dir = env ? std::filesystem::path(env)
                       : std::filesystem::temp_directory_path() /
                             "rcf_bench_cache";
  return dir / name.str();
}

bool load_reference(const std::filesystem::path& path, double& f_star,
                    la::Vector& w_star) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::size_t dim = 0;
  if (!(in >> f_star >> dim)) {
    return false;
  }
  w_star.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    if (!(in >> w_star[i])) {
      return false;
    }
  }
  return true;
}

void store_reference(const std::filesystem::path& path, double f_star,
                     const la::Vector& w_star) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  if (!out) {
    return;  // caching is best-effort
  }
  out.precision(17);
  out << f_star << ' ' << w_star.size() << '\n';
  for (double v : w_star) {
    out << v << ' ';
  }
  out << '\n';
}

}  // namespace

BenchProblem::BenchProblem(const std::string& dataset_name, double scale,
                           double lambda_ratio, std::uint64_t seed) {
  if (scale <= 0.0) {
    scale = data::default_clone_scale(dataset_name);
  }
  dataset_ = std::make_unique<data::Dataset>(
      data::make_paper_clone(dataset_name, scale, seed));
  const core::LassoProblem probe(*dataset_, 0.0);
  lambda_ = lambda_ratio * probe.lambda_max();
  problem_ = std::make_unique<core::LassoProblem>(*dataset_, lambda_);

  // The high-accuracy reference is expensive for the dense clones; cache it
  // on disk keyed by everything that determines it.
  const auto cache = cache_path(dataset_name, scale, lambda_ratio, seed);
  if (!load_reference(cache, f_star_, w_star_) ||
      w_star_.size() != dataset_->num_features()) {
    const auto ref = core::solve_reference(*problem_);
    f_star_ = ref.objective;
    w_star_ = ref.w;
    store_reference(cache, f_star_, w_star_);
  }
}

void add_common_flags(CliParser& cli) {
  cli.add_flag("datasets", "comma-separated dataset clones",
               "SUSY,covtype,mnist,epsilon");
  cli.add_flag("scale", "row-scale for the clones (0 = per-dataset default)",
               "0");
  cli.add_flag("lambda-ratio", "lambda as fraction of lambda_max", "0.01");
  cli.add_flag("seed", "experiment seed", "42");
  cli.add_flag("machine", "machine spec: comet|spark|ethernet|infiniband",
               "comet");
  cli.add_flag("csv-dir", "directory for CSV copies of the tables", "");
  cli.add_flag("trace-out", "Chrome trace-event JSON output path", "");
  cli.add_flag("trace-jsonl", "flat JSONL trace output path", "");
  cli.add_flag("metrics-out", "metrics registry JSON output path", "");
  cli.add_flag("conv-out",
               "convergence telemetry JSONL output path (appended per run)",
               "");
  cli.add_flag("live",
               "live telemetry stream path (1 = rcf_live.jsonl; "
               "env RCF_LIVE when flag absent)",
               "");
  cli.add_flag("threads",
               "intra-rank pool threads per rank (1 = sequential, 0 = "
               "hardware/ranks; env RCF_THREADS when flag absent)",
               "");
  cli.add_flag("backend",
               "kernel backend: scalar|simd (env RCF_BACKEND when flag "
               "absent)",
               "");
}

int requested_threads(const CliParser& cli) {
  const std::string spec = cli.get_string("threads", "");
  if (!spec.empty()) {
    const int parsed = static_cast<int>(cli.get_int("threads", 1));
    RCF_CHECK_MSG(parsed >= 0, "--threads must be >= 0");
    return parsed;
  }
  return exec::threads_from_env(/*fallback=*/1);
}

obs::ScopedSession start_observability(const CliParser& cli) {
  // Every bench calls this right after parsing, so installing the kernel
  // backend here gives all binaries the --backend knob without per-main
  // plumbing.  CLI wins over RCF_BACKEND; default scalar.
  la::install_backend_from(cli.get_string("backend", ""));
  std::string live = cli.get_string("live", "");
  if (live == "1") {
    live = "rcf_live.jsonl";
  }
  return obs::ScopedSession(cli.get_string("trace-out", ""),
                            cli.get_string("trace-jsonl", ""),
                            cli.get_string("metrics-out", ""), std::move(live));
}

void maybe_write_convergence(const CliParser& cli, const std::string& run_tag,
                             const core::SolveResult& result) {
  const std::string path = cli.get_string("conv-out", "");
  if (path.empty() || result.conv.empty()) {
    return;
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    RCF_LOG_WARN << "could not append convergence records to " << path;
    return;
  }
  std::string line;
  char buf[48];
  const auto field = [&line, &buf](const char* key, double v) {
    line += ",\"";
    line += key;
    line += "\":";
    if (std::isnan(v)) {
      line += "null";
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      line += buf;
    }
  };
  for (const auto& rec : result.conv.ordered()) {
    line.clear();
    line += "{\"run\":\"";
    json_escape_to(run_tag, line);
    line += "\",\"solver\":\"";
    json_escape_to(result.solver, line);
    line += "\",\"iteration\":";
    line += std::to_string(rec.iteration);
    field("objective", rec.objective);
    field("grad_norm", rec.grad_norm);
    field("support", rec.support);
    field("step", rec.step);
    line += "}\n";
    out << line;
  }
}

void maybe_write_csv(const CliParser& cli, const std::string& stem,
                     const AsciiTable& table) {
  const std::string dir = cli.get_string("csv-dir", "");
  if (dir.empty()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(std::filesystem::path(dir) / (stem + ".csv"));
  if (out) {
    out << table.csv();
  } else {
    RCF_LOG_WARN << "could not write CSV for " << stem << " under " << dir;
  }
}

std::vector<std::string> requested_datasets(const CliParser& cli,
                                             const std::string& fallback) {
  std::vector<std::string> out;
  std::string spec = cli.get_string("datasets", fallback);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const auto comma = spec.find(',', pos);
    const auto end = comma == std::string::npos ? spec.size() : comma;
    if (end > pos) {
      out.push_back(spec.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return out;
}

BenchProblem make_bench_problem(const CliParser& cli,
                                const std::string& dataset) {
  return BenchProblem(dataset, cli.get_double("scale", 0.0),
                      cli.get_double("lambda-ratio", 0.01),
                      static_cast<std::uint64_t>(cli.get_int("seed", 42)));
}

model::MachineSpec requested_machine(const CliParser& cli) {
  return model::machine_by_name(cli.get_string("machine", "comet"));
}

const char* build_git_sha() {
#ifdef RCF_GIT_SHA
  return RCF_GIT_SHA;
#else
  return "unknown";
#endif
}

const char* build_flags() {
#ifdef RCF_BUILD_FLAGS
  return RCF_BUILD_FLAGS;
#else
  return "unknown";
#endif
}

void print_banner(const std::string& experiment, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("(dataset clones + alpha-beta-gamma cost model; see DESIGN.md "
              "\"Substitutions\")\n");
  std::printf("build %s  flags %s\n", build_git_sha(), build_flags());
  std::printf("================================================================\n\n");
}

TimeToTol time_to_tol(const core::SolveResult& result, double tol) {
  for (const auto& rec : result.history) {
    if (!std::isnan(rec.rel_error) && rec.rel_error <= tol) {
      return {rec.sim_seconds, rec.iteration, true};
    }
  }
  return {result.sim_seconds, result.iterations, false};
}

bool default_adaptive_restart(const std::string& dataset) {
  return dataset == "mnist" || dataset == "epsilon";
}

int default_hessian_reuse(const std::string& dataset) {
  return default_adaptive_restart(dataset) ? 1 : 3;
}

double default_sampling_rate(const std::string& dataset) {
  if (dataset == "abalone") return 0.25;
  if (dataset == "SUSY") return 0.02;
  if (dataset == "covtype") return 0.05;
  if (dataset == "mnist") return 0.15;   // mbar = 900 >= d = 780
  if (dataset == "epsilon") return 0.02;
  return 0.05;
}

double modeled_seconds(const core::IterationRecord& rec, int procs, int k,
                       int s, std::size_t d,
                       const model::MachineSpec& machine,
                       model::CollectiveModel collective) {
  // Latency: rounds derived from the overlap schedule, ceil(n/k).  Using the
  // formula rather than the recorded rounds lets one trajectory (whose
  // iterates are k-invariant) be re-costed for any k; it matches the
  // recorded count exactly for plain runs and up to the per-epoch anchor
  // rounds for VR runs.
  const double rounds =
      std::ceil(static_cast<double>(rec.iteration) / static_cast<double>(k));
  const auto per_round =
      model::allreduce_cost(collective, procs, /*words=*/1);
  const double latency =
      machine.alpha_effective() * rounds * per_round.messages;
  // Bandwidth: the collective's word multiplier applied to the payload.
  const auto word_factor = model::allreduce_cost(collective, procs, 1).words;
  const double bandwidth = machine.beta * rec.comm_payload_words * word_factor;
  // Flops: Gram work is partitioned; update work is redundant on all ranks.
  const double flops_seconds =
      machine.gamma * (rec.raw_gram_flops / static_cast<double>(procs) +
                       rec.raw_update_flops);
  // Cache spill of the k-block working set (see MachineSpec::beta_mem).
  const double block_words =
      static_cast<double>(k) * (static_cast<double>(d) * d + d);
  const double mem_seconds =
      block_words > machine.cache_doubles
          ? machine.beta_mem * (1.0 + s) * rec.comm_payload_words
          : 0.0;
  return latency + bandwidth + flops_seconds + mem_seconds;
}

TimeToTol time_to_tol_at(const core::SolveResult& result, double tol,
                         int procs, int k, int s, std::size_t d,
                         const model::MachineSpec& machine,
                         model::CollectiveModel collective) {
  for (const auto& rec : result.history) {
    if (!std::isnan(rec.rel_error) && rec.rel_error <= tol) {
      return {modeled_seconds(rec, procs, k, s, d, machine, collective),
              rec.iteration, true};
    }
  }
  if (result.history.empty()) {
    return {0.0, result.iterations, false};
  }
  return {modeled_seconds(result.history.back(), procs, k, s, d, machine,
                          collective),
          result.iterations, false};
}

}  // namespace rcf::bench
