// Kernel microbenchmarks (google-benchmark): the primitive operations the
// solver loop is built from, for performance-regression tracking.
//
// Pass --counters (stripped before google-benchmark sees the argv) to
// sample hardware performance counters around each instrumented kernel and
// emit roofline rows: cycles/instructions/LLC-misses per iteration, IPC,
// flops per cycle, arithmetic intensity (flops per LLC-filled byte), and
// achieved GFLOP/s.  Degrades to a `perf_ok=0` counter where
// perf_event_open is unavailable (containers, non-Linux).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "rcf.hpp"

namespace {

using namespace rcf;

// Set by main() when --counters is passed.
bool g_counters = false;

/// Publishes roofline counters for one benchmark run.  `flops_per_iter` is
/// the caller's flop model of one loop body; LLC-miss traffic is converted
/// to bytes at 64 B per line.
void roofline_row(benchmark::State& state, const obs::PerfSample& sample,
                  double flops_per_iter) {
  state.counters["perf_ok"] = sample.valid ? 1.0 : 0.0;
  const auto iters = static_cast<double>(state.iterations());
  if (!sample.valid || iters <= 0.0) {
    return;
  }
  const auto cycles = static_cast<double>(sample.cycles);
  const auto instrs = static_cast<double>(sample.instructions);
  state.counters["cycles_per_iter"] = cycles / iters;
  state.counters["instr_per_iter"] = instrs / iters;
  state.counters["ipc"] = sample.ipc();
  state.counters["flops_per_iter"] = flops_per_iter;
  const double total_flops = flops_per_iter * iters;
  if (cycles > 0.0) {
    state.counters["flop_per_cycle"] = total_flops / cycles;
  }
  if (sample.llc_ok) {
    const auto misses = static_cast<double>(sample.llc_misses);
    state.counters["llc_miss_per_iter"] = misses / iters;
    const double bytes = misses * 64.0;
    if (bytes > 0.0) {
      state.counters["ai_flop_per_byte"] = total_flops / bytes;
    }
  }
  if (sample.time_enabled_ns > 0) {
    // flops per enabled nanosecond == GFLOP/s.
    state.counters["gflops"] =
        total_flops / static_cast<double>(sample.time_enabled_ns);
  }
}

/// Runs the benchmark loop, sampling hardware counters around it when
/// --counters is active.  The counter group covers the whole timed loop,
/// so per-iteration figures are means over state.iterations().
template <typename Fn>
void run_kernel(benchmark::State& state, double flops_per_iter,
                const Fn& body) {
  if (!g_counters) {
    for (auto _ : state) {
      body();
    }
    return;
  }
  obs::PerfCounters perf;
  const bool sampling = perf.available();
  if (sampling) {
    perf.start();
  }
  for (auto _ : state) {
    body();
  }
  if (sampling) {
    roofline_row(state, perf.stop(), flops_per_iter);
  } else {
    state.counters["perf_ok"] = 0.0;
  }
}

sparse::CsrMatrix make_matrix(std::size_t rows, std::size_t cols,
                              double density) {
  sparse::GenerateOptions opts;
  opts.rows = rows;
  opts.cols = cols;
  opts.density = density;
  opts.seed = 7;
  return sparse::generate_random(opts);
}

void BM_Philox(benchmark::State& state) {
  Rng rng(42, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_Philox);

void BM_SampleWithoutReplacement(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t stream = 0;
  for (auto _ : state) {
    Rng rng(42, stream++);
    benchmark::DoNotOptimize(rng.sample_without_replacement(n, n / 100 + 1));
  }
}
BENCHMARK(BM_SampleWithoutReplacement)->Arg(10000)->Arg(100000);

// The sampler at the (n, count) shapes the solvers draw: the covtype clone
// (m = 29,051) at SPMD b = 0.2 and PN b = 0.02, the clone's per-row column
// draw (54 columns), and the Fisher-Yates regime at count = n / 2.
void BM_SampleAtSolverShapes(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto count = static_cast<std::uint64_t>(state.range(1));
  std::uint64_t stream = 0;
  for (auto _ : state) {
    Rng rng(42, stream++);
    benchmark::DoNotOptimize(rng.sample_without_replacement(n, count));
  }
}
BENCHMARK(BM_SampleAtSolverShapes)
    ->Args({29051, 5810})
    ->Args({29051, 581})
    ->Args({54, 12})
    ->Args({29051, 14525});

// The split-tree draw every solve makes, at the same covtype shapes: rank
// 0's share of the P-part partition of [0, n) (P = 1 is the whole set),
// into a reused buffer as the engine draws it.
void BM_SplitTreeShare(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto count = static_cast<std::uint64_t>(state.range(1));
  const auto parts = static_cast<std::uint64_t>(state.range(2));
  const SplitTreeSampler sampler(n, count);
  const std::uint64_t hi = n / parts + (n % parts != 0 ? 1 : 0);
  std::vector<std::uint32_t> share;
  std::uint64_t stream = 0;
  for (auto _ : state) {
    sampler.sample(42, stream++, 0, hi, share);
    benchmark::DoNotOptimize(share.data());
  }
}
BENCHMARK(BM_SplitTreeShare)
    ->ArgNames({"n", "count", "P"})
    ->Args({29051, 5810, 1})
    ->Args({29051, 5810, 2})
    ->Args({29051, 5810, 4})
    ->Args({29051, 581, 1})
    ->Args({29051, 581, 2})
    ->Args({29051, 581, 4});

void BM_SpMV(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto mat = make_matrix(rows, 256, 0.2);
  std::vector<double> x(256, 1.0), y(rows);
  // One multiply-add per stored nonzero.
  run_kernel(state, 2.0 * static_cast<double>(mat.nnz()), [&] {
    mat.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  });
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mat.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(1000)->Arg(10000);

void BM_SampledGram(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto mat = make_matrix(20000, d, 0.2);
  la::Vector y(20000, 1.0);
  la::Matrix h(d, d);
  la::Vector r(d);
  Rng rng(42, 1);
  const auto idx = rng.sample_without_replacement(20000, 500);
  // Flop model: each sampled row contributes ~nnz_row^2 multiply-adds to
  // the Gram accumulation plus nnz_row for the residual term; estimated
  // from the mean row density.
  const double avg_nnz =
      static_cast<double>(mat.nnz()) / static_cast<double>(mat.rows());
  const double flops = static_cast<double>(idx.size()) *
                       (2.0 * avg_nnz * avg_nnz + 2.0 * avg_nnz);
  run_kernel(state, flops, [&] {
    benchmark::DoNotOptimize(
        sparse::sampled_gram(mat, y.span(), idx, h, r.span()));
  });
}
BENCHMARK(BM_SampledGram)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Pooled kernel rows: the same kernels on an installed exec::Pool of 1/2/4/8
// threads.  Each row reports `pool_threads` and `speedup` (sequential time /
// pooled time, both wall-clock on this machine) in the console and JSON
// output, so `--benchmark_format=json` captures the scaling curve directly.
// The work sizes sit well above exec::kParallelWorkCutoff so the rows
// exercise the parallel dispatch path, and by the determinism contract the
// pooled results are bit-identical to the sequential ones.

/// Mean seconds per call over `reps` sequential calls (no ambient pool).
template <typename Fn>
double sequential_seconds(const Fn& fn, int reps) {
  WallTimer timer;
  for (int i = 0; i < reps; ++i) {
    fn();
  }
  return timer.seconds() / reps;
}

template <typename Fn>
void run_pooled(benchmark::State& state, const Fn& call) {
  const int width = static_cast<int>(state.range(0));
  const double seq = sequential_seconds(call, 3);
  exec::Pool pool(width);
  exec::PoolGuard guard(&pool);
  WallTimer wall;
  for (auto _ : state) {
    call();
  }
  const double total = wall.seconds();
  const auto iters = static_cast<double>(state.iterations());
  state.counters["pool_threads"] = static_cast<double>(width);
  state.counters["speedup"] =
      (iters > 0 && total > 0.0) ? seq / (total / iters) : 0.0;
}

void BM_SampledGramPooled(benchmark::State& state) {
  // Dense synthetic block (density 1.0): the regime where the Gram
  // accumulation is compute-bound and pool scaling is visible.
  const std::size_t d = 256;
  const auto mat = make_matrix(2000, d, 1.0);
  la::Vector y(2000, 1.0);
  la::Matrix h(d, d);
  la::Vector r(d);
  Rng rng(42, 1);
  const auto idx = rng.sample_without_replacement(2000, 500);
  run_pooled(state, [&] {
    benchmark::DoNotOptimize(
        sparse::sampled_gram(mat, y.span(), idx, h, r.span()));
  });
}
BENCHMARK(BM_SampledGramPooled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SpMVPooled(benchmark::State& state) {
  const std::size_t rows = 200000;
  const auto mat = make_matrix(rows, 256, 0.2);
  std::vector<double> x(256, 1.0), y(rows);
  run_pooled(state, [&] {
    mat.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  });
}
BENCHMARK(BM_SpMVPooled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GemvPooled(benchmark::State& state) {
  // The solver's pooled H.v product on a d x d symmetric block.
  const std::size_t d = 1024;
  la::Matrix h(d, d, 0.5);
  la::Vector x(d, 1.0), y(d);
  run_pooled(state, [&] {
    la::gemv(1.0, h, x.span(), 0.0, y.span());
    benchmark::DoNotOptimize(y.data());
  });
}
BENCHMARK(BM_GemvPooled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Backend rows: scalar-vs-SIMD roofline comparison (see DESIGN.md "Kernel
// backends").  The benchmark loop runs under the SIMD backend; the scalar
// reference time for the same call is measured inline and published as
// `simd_speedup` (scalar seconds per call / SIMD seconds per call), so one
// `--benchmark_format=json` capture carries both sides of the comparison.
// With --counters the rows also report the usual roofline counters for the
// SIMD side.

template <typename Fn>
void run_backend_pair(benchmark::State& state, double flops_per_iter,
                      const Fn& call) {
  double scalar_sec = 0.0;
  {
    la::ScopedBackend scoped(la::Backend::kScalar);
    scalar_sec = sequential_seconds(call, 3);
  }
  la::ScopedBackend scoped(la::Backend::kSimd);
  WallTimer wall;
  run_kernel(state, flops_per_iter, call);
  const double total = wall.seconds();
  const auto iters = static_cast<double>(state.iterations());
  state.counters["simd_speedup"] =
      (iters > 0 && total > 0.0) ? scalar_sec / (total / iters) : 0.0;
}

void BM_SampledGramBackend(benchmark::State& state) {
  // Dense rows take the four-sample fused SIMD path in sampled_gram.
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto mat = make_matrix(2000, d, 1.0);
  la::Vector y(2000, 1.0);
  la::Matrix h(d, d);
  la::Vector r(d);
  Rng rng(42, 1);
  const auto idx = rng.sample_without_replacement(2000, 500);
  const double dd = static_cast<double>(d);
  const double flops =
      static_cast<double>(idx.size()) * (2.0 * dd * dd + 2.0 * dd);
  run_backend_pair(state, flops, [&] {
    benchmark::DoNotOptimize(
        sparse::sampled_gram(mat, y.span(), idx, h, r.span()));
  });
}
BENCHMARK(BM_SampledGramBackend)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SpMVBackend(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto mat = make_matrix(rows, 256, 0.2);
  std::vector<double> x(256, 1.0), y(rows);
  run_backend_pair(state, 2.0 * static_cast<double>(mat.nnz()), [&] {
    mat.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  });
}
BENCHMARK(BM_SpMVBackend)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_Gemv(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  la::Matrix h(d, d, 0.5);
  la::Vector x(d, 1.0), y(d);
  run_kernel(state, 2.0 * static_cast<double>(d) * static_cast<double>(d),
             [&] {
               la::gemv(1.0, h, x.span(), 0.0, y.span());
               benchmark::DoNotOptimize(y.data());
             });
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * d * d));
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(1024);

void BM_SoftThreshold(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  la::Vector in(d, 0.3), out(d);
  // Compare + subtract per element.
  run_kernel(state, 2.0 * static_cast<double>(d), [&] {
    prox::soft_threshold(in.span(), 0.1, out.span());
    benchmark::DoNotOptimize(out.data());
  });
}
BENCHMARK(BM_SoftThreshold)->Arg(1024)->Arg(65536);

void BM_ThreadAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t words = 4096;
  dist::ThreadGroup group(ranks);
  // Run traced so the row can surface exact latency quantiles from the
  // "allreduce" spans (the per-call span overhead is in the noise next to
  // the rendezvous itself; see BM_TraceScopeEnabled).
  auto& session = obs::TraceSession::global();
  session.start();
  for (auto _ : state) {
    group.run([&](dist::ThreadComm& comm) {
      std::vector<double> buf(words, static_cast<double>(comm.rank()));
      comm.allreduce_sum(buf);
      benchmark::DoNotOptimize(buf.data());
    });
  }
  session.stop();
  std::vector<double> lat_us;
  for (const auto& ev : session.snapshot()) {
    if (std::string_view(ev.name) == "allreduce") {
      lat_us.push_back(static_cast<double>(ev.dur_us));
    }
  }
  session.clear();
  if (lat_us.empty()) {
    return;
  }
  // Nearest rank: the ceil(p * n)-th smallest span duration.
  std::sort(lat_us.begin(), lat_us.end());
  const double n = static_cast<double>(lat_us.size());
  const auto at = [&](double p) {
    const double rank = std::clamp(std::ceil(p * n), 1.0, n);
    return lat_us[static_cast<std::size_t>(rank) - 1];
  };
  state.counters["lat_p50_us"] = at(0.50);
  state.counters["lat_p95_us"] = at(0.95);
  state.counters["lat_p99_us"] = at(0.99);
}
BENCHMARK(BM_ThreadAllreduce)->Arg(2)->Arg(4);

void BM_TraceScopeDisabled(benchmark::State& state) {
  // The promised no-op cost of an instrumented scope with tracing off: one
  // relaxed atomic load and a branch (compare against BM_TraceScopeEnabled).
  for (auto _ : state) {
    RCF_TRACE_SCOPE("bench");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceScopeDisabled);

void BM_TraceScopeEnabled(benchmark::State& state) {
  auto& session = obs::TraceSession::global();
  session.start();
  for (auto _ : state) {
    RCF_TRACE_SCOPE("bench");
    benchmark::ClobberMemory();
  }
  session.stop();
  session.clear();
}
BENCHMARK(BM_TraceScopeEnabled);

void BM_TelemetryPublishOff(benchmark::State& state) {
  // Gate off: telemetry_publish must cost exactly one relaxed load + branch
  // (the always-on instrumentation budget; see src/obs/telemetry.hpp).
  for (auto _ : state) {
    obs::telemetry_publish(obs::TelemetryKind::kProgress, "bench", 1, 2.0,
                           3.0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetryPublishOff);

void BM_TelemetryPublishOn(benchmark::State& state) {
  // Gate on without a LiveMonitor: stamp + ring push.  The ring is drained
  // every half-capacity so the measurement covers the push path, not the
  // saturated drop path (amortized drain cost is included, which matches
  // what a producer thread experiences under a live sampler).
  obs::detail::set_gate_bit(obs::detail::kGateLive, true);
  const std::uint64_t drops_before = obs::telemetry_dropped();
  std::size_t since_drain = 0;
  for (auto _ : state) {
    obs::telemetry_publish(obs::TelemetryKind::kProgress, "bench", 1, 2.0,
                           3.0);
    if (++since_drain == obs::TelemetryRing::kDefaultCapacity / 2) {
      since_drain = 0;
      obs::telemetry_drain();
    }
  }
  obs::detail::set_gate_bit(obs::detail::kGateLive, false);
  obs::telemetry_drain();
  state.counters["dropped"] =
      static_cast<double>(obs::telemetry_dropped() - drops_before);
}
BENCHMARK(BM_TelemetryPublishOn);

void BM_SolverIteration(benchmark::State& state) {
  // One full RC-SFISTA iteration on a covtype-scale problem.
  data::SyntheticOptions gen;
  gen.num_samples = 20000;
  gen.num_features = 54;
  gen.density = 0.22;
  const auto ds = data::make_regression(gen);
  const core::LassoProblem problem(ds, 0.01);
  for (auto _ : state) {
    core::SolverOptions opts;
    opts.max_iters = 8;
    opts.sampling_rate = 0.05;
    opts.k = 8;
    opts.track_history = false;
    benchmark::DoNotOptimize(core::solve_rc_sfista(problem, opts));
  }
}
BENCHMARK(BM_SolverIteration)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark::benchmark_main): strips --counters and
// --backend before google-benchmark parses the argv (it rejects unknown
// flags), and turns on the obs::PerfScope sampling that rides the exec::Pool
// kernel spans for the pooled rows.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  std::string backend_value;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--counters") {
      g_counters = true;
      continue;
    }
    constexpr std::string_view kBackendPrefix = "--backend=";
    if (arg.substr(0, kBackendPrefix.size()) == kBackendPrefix) {
      backend_value = arg.substr(kBackendPrefix.size());
      continue;
    }
    args.push_back(argv[i]);
  }
  // Default backend for the plain rows; the BM_*Backend rows pin their own.
  const rcf::la::Backend backend =
      rcf::la::install_backend_from(backend_value);
  if (g_counters) {
    rcf::obs::set_perf_scopes_enabled(true);
    if (!rcf::obs::PerfCounters::supported()) {
      std::fprintf(stderr,
                   "bench_kernels: --counters requested but perf_event_open "
                   "is unavailable; emitting perf_ok=0 rows\n");
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  // Provenance for bench-compare: which commit / flags produced this JSON
  // (stamped by bench/CMakeLists.txt at configure time).
#ifdef RCF_GIT_SHA
  benchmark::AddCustomContext("rcf_git_sha", RCF_GIT_SHA);
#endif
#ifdef RCF_BUILD_FLAGS
  benchmark::AddCustomContext("rcf_build_flags", RCF_BUILD_FLAGS);
#endif
  benchmark::AddCustomContext("rcf_backend", rcf::la::backend_name(backend));
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
