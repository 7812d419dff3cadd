// perfbench: measured end-to-end and per-layer solve benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--src-sha256 <hash>] [--spans-out <path>]
//
// --trace 0 runs the end-to-end measurement with tracing off; --trace 1 runs
// the separate traced measurement of the per-layer metrics (layers.hpp).
// Lines starting with '#' are context and report; the last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the usual entry point.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>

#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace rcf;

/// Environment switches that would turn on tracing, live telemetry, the
/// contract checker or fault injection inside the measured solves.
constexpr std::string_view kRefusedEnv[] = {"RCF_TRACE", "RCF_METRICS",
                                            "RCF_LIVE", "RCF_CHECK",
                                            "RCF_FAULT"};

bool environment_is_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view var(*e);
    for (const std::string_view prefix : kRefusedEnv) {
      if (var.starts_with(prefix)) {
        std::fprintf(stderr, "perfbench: refusing to run with %.*s set\n",
                     static_cast<int>(var.find('=')), var.data());
        clean = false;
      }
    }
  }
  return clean;
}

cpu_set_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    CPU_SET(0, &set);
  }
  return set;
}

int online_cpus() {
  const cpu_set_t set = allowed_cpus();
  return CPU_COUNT(&set);
}

/// Pins the calling thread to the `index`-th allowed CPU (mod their count)
/// for the guard's lifetime.  Threads started meanwhile would inherit the
/// pin, so it only wraps single-threaded work.
class PinToCpu {
 public:
  explicit PinToCpu(int index) : saved_(allowed_cpus()) {
    std::vector<std::size_t> cpus;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        cpus.push_back(c);
      }
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(index) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;
  ~PinToCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }

 private:
  cpu_set_t saved_;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  json_escape_to(s, out);
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    std::fprintf(stderr, "perfbench: non-finite metric value reported as 0\n");
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

RunOutcome run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                          double seconds) {
  // The first set-up builds the inputs of the reference and warm-up solves
  // and is not timed: it runs while clocks ramp up and pages first fault
  // in.  The timed set-ups, kSetupReps of them, are spread evenly over
  // the measurement window and over the allowed CPUs in turn, and reported
  // as a median: single-thread speed differs between cores of a shared
  // host and over time, and this samples the same mix the solves see.
  // Each set-up replaces the instance -- the old one is freed first, so
  // peak RSS holds one -- and later solves must still match the first
  // iterate bitwise.
  Instance inst;
  std::vector<double> setup_s;
  const auto rebuild = [&](bool timed) {
    inst = Instance{};
    SetupTiming timing;
    {
      const PinToCpu pin(static_cast<int>(setup_s.size()));
      inst = set_up(spec, seed, timing);
    }
    if (timed) {
      setup_s.push_back(timing.total_s);
    }
  };
  rebuild(false);
  // The correctness oracle: untimed and outside set-up.
  const double f_star = core::solve_reference(*inst.problem).objective;

  Gate gate(f_star);
  const auto reps = static_cast<std::size_t>(kSetupReps);
  const auto spread_setups = [&](double elapsed) {
    while (setup_s.size() < reps &&
           elapsed >= seconds * static_cast<double>(setup_s.size()) /
                          static_cast<double>(reps)) {
      rebuild(true);
    }
  };
  // 40 timed solves leave ten beyond p75.
  const SolveSamples s =
      run_solves(spec, inst, seed, gate, false, 2, seconds, 40, spread_setups);
  while (setup_s.size() < reps) {
    rebuild(true);
  }
  const double p50 = percentile(s.seconds, 0.5);
  const double p75 = percentile(s.seconds, 0.75);
  const auto n = s.seconds.size();
  const auto beyond = n - static_cast<std::size_t>(std::ceil(0.75 * n));
  std::printf("# setup_s: median of %d set-ups = %.6f s\n", kSetupReps,
              median(setup_s));
  std::printf("# solve_s: n=%zu p50=%.6f s p75=%.6f s (%zu samples beyond "
              "p75); last relative error %.3g\n",
              n, p50, p75, beyond, gate.last_rel_error());

  RunOutcome out;
  out.attempted = s.attempted;
  out.failed = s.failed;
  out.correct = s.failed == 0 && s.warmup_ok;
  out.metrics = {
      {"solve_s.p50", p50, "s"},
      {"solve_s.p75", p75, "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"pass_frac",
       1.0 - static_cast<double>(s.failed) / static_cast<double>(s.attempted),
       "ratio"},
  };
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--src-sha256 <hash>] [--spans-out <path>]\nworkloads:",
               msg);
  for (const auto& spec : workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return usage(("unexpected argument " + key).c_str());
    }
    key = key.substr(2);
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return usage(("missing value for --" + key).c_str());
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      return usage((std::string("missing --") + required).c_str());
    }
  }
  const WorkloadSpec* spec = find_workload(args["workload"]);
  if (spec == nullptr) {
    return usage(("unknown workload " + args["workload"]).c_str());
  }
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || args["seed"].empty()) {
    return usage("--seed must be a non-negative integer");
  }
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  const std::string trace = args["trace"];
  if (trace != "0" && trace != "1") {
    return usage("--trace must be 0 or 1");
  }

  // Checked before any library call: the trace session and the live
  // monitor start themselves from the environment on first use.
  if (!environment_is_clean()) {
    return 3;
  }
  // glibc raises its mmap threshold after large frees, so which buffers
  // stay resident -- and so peak RSS -- would depend on allocation history.
  // A fixed threshold returns every large buffer to the OS when it is freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const int nproc = online_cpus();
  if (thread_count(*spec) > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s runs %d threads but only %d CPUs are online\n",
                 spec->name.c_str(), thread_count(*spec), nproc);
    return 3;
  }

  const la::ScopedBackend backend(spec->backend);
  std::printf(
      "# context {\"workload\":%s,\"seed\":%llu,\"trace\":%s,\"nproc\":%d,"
      "\"cpu_model\":%s,\"git_sha\":%s,\"src_sha256\":%s,\"build_flags\":%s,"
      "\"backend\":%s,\"ranks\":%d,\"pool_threads\":%d,\"pipeline\":%s,"
      "\"staleness\":0,\"threads\":%d,\"b\":%g,\"k\":%d,\"s\":%d,"
      "\"iterations\":%d,\"inner_iters\":%d}\n",
      json_string(spec->name).c_str(), static_cast<unsigned long long>(seed),
      trace.c_str(), nproc, json_string(cpu_model()).c_str(),
      json_string(args.count("git-sha") ? args["git-sha"] : "unknown").c_str(),
      json_string(args.count("src-sha256") ? args["src-sha256"] : "unknown")
          .c_str(),
      json_string(PERFBENCH_BUILD_FLAGS).c_str(),
      json_string(la::backend_name(spec->backend)).c_str(), spec->ranks,
      spec->pool_threads, spec->pipeline ? "true" : "false",
      thread_count(*spec), spec->sampling_rate, spec->k, spec->s,
      spec->iterations, spec->inner_iters);
  std::fflush(stdout);

  const RunOutcome out =
      trace == "1" ? run_traced(*spec, seed, seconds, args["spans-out"])
                   : run_end_to_end(*spec, seed, seconds);

  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i > 0 ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
