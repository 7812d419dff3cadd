#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "check/checked_comm.hpp"
#include "dist/retry.hpp"
#include "fault/faulty_comm.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace rcf;

namespace {

constexpr int kReps = 31;             // replays per per-call metric
constexpr int kCollectiveReps = 201;  // allreduce replays (p99 needs them)

std::size_t batch_mbar(double rate, std::size_t m) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(rate * static_cast<double>(m))));
}

/// The part of a sorted global index set that falls in [lo, hi), rebased to
/// the block -- what each SPMD rank keeps of the shared draw.
std::vector<std::uint32_t> local_part(const std::vector<std::uint32_t>& idx,
                                      std::size_t lo, std::size_t hi) {
  std::vector<std::uint32_t> out;
  for (const auto i : idx) {
    if (i >= lo && i < hi) {
      out.push_back(static_cast<std::uint32_t>(i - lo));
    }
  }
  return out;
}

/// Runs prep(r) untimed, then fn(r) inside span `name`, `reps` times;
/// returns each span's microseconds.
template <typename Prep, typename Fn>
std::vector<double> time_each(const std::string& name, int reps, Prep&& prep,
                              Fn&& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    prep(r);
    int id = 0;
    {
      SpanScope span(name);
      id = span.id();
      fn(r);
    }
    us.push_back(SpanLog::global().seconds(id) * 1e6);
  }
  return us;
}

double phase_count(const core::SolveResult& r, const char* name) {
  const obs::PhaseStat* p = obs::find_phase(r.phases, name);
  return p != nullptr ? static_cast<double>(p->count) : 0.0;
}

double phase_seconds(const core::SolveResult& r, const char* name) {
  const obs::PhaseStat* p = obs::find_phase(r.phases, name);
  return p != nullptr ? p->seconds : 0.0;
}

/// Per-call times of the dist and check layers, measured inside one
/// ThreadGroup::run with every rank calling; rank 0 records the spans.
struct DistTimes {
  double group_run_us = 0.0;
  double allreduce_p50_us = 0.0;
  double allreduce_p99_us = 0.0;
  double decorator_us = 0.0;
  double post_us = 0.0;
  double wait_us = 0.0;
};

DistTimes replay_dist(dist::ThreadGroup& group, std::size_t payload) {
  DistTimes t;
  {
    SpanScope layer("dist.replay");
    t.group_run_us = median(time_calls("dist.group_run", kReps, 1, [&] {
      group.run([](dist::ThreadComm&) {});
    }));
    const int parent = layer.id();
    std::vector<double> raw, decorated, post, wait;
    group.run([&](dist::ThreadComm& comm) {
      // Zeros keep repeated sums finite; the reduction cost does not
      // depend on the values.
      std::vector<double> buf(payload, 0.0);
      fault::FaultyComm faulty(comm, nullptr);
      dist::RetryingComm retrying(faulty, dist::RetryPolicy{});
      check::CheckedComm checked(retrying, check::CheckOptions{});
      const bool record = comm.rank() == 0;
      const auto timed = [&](const char* name, std::vector<double>& into,
                             const auto& call) {
        if (!record) {
          call();
          return;
        }
        const int id = SpanLog::global().open(name, parent);
        call();
        SpanLog::global().close(id);
        into.push_back(SpanLog::global().seconds(id) * 1e6);
      };
      for (int r = 0; r < kCollectiveReps; ++r) {
        timed("dist.allreduce", raw, [&] { comm.allreduce_sum(buf); });
        timed("check.decorated_allreduce", decorated,
              [&] { checked.allreduce_sum(buf); });
      }
      for (int r = 0; r < kReps; ++r) {
        dist::CommHandle handle;
        timed("dist.post", post, [&] { handle = comm.iallreduce_sum(buf); });
        timed("dist.wait", wait, [&] { handle.wait(); });
      }
    });
    t.allreduce_p50_us = median(raw);
    t.allreduce_p99_us = percentile(raw, 0.99);
    t.decorator_us = median(decorated) - t.allreduce_p50_us;
    t.post_us = median(post);
    t.wait_us = median(wait);
  }
  return t;
}

/// Per-call times of the kernels one rank runs.
struct KernelTimes {
  double sample_us = 0.0;
  double gram_us = 0.0;
  double gram_flops = 0.0;
  double symmetrize_us = 0.0;
  double gemv_us = 0.0;
  double soft_threshold_us = 0.0;
  double spmv_us = 0.0;
  double spmv_t_us = 0.0;
  double select_rows_us = 0.0;
  double slice_rows_us = 0.0;
  double power_iteration_ms = 0.0;
  double step_size_s = 0.0;
  double pool_start_us = 0.0;
  double dispatch_us = 0.0;
};

KernelTimes replay_kernels(const WorkloadSpec& spec, const Instance& inst,
                           std::uint64_t seed) {
  KernelTimes t;
  const core::LassoProblem& problem = *inst.problem;
  const sparse::CsrMatrix& xt = problem.xt();
  const std::size_t m = problem.num_samples();
  const std::size_t d = problem.dim();
  const std::size_t mbar = batch_mbar(spec.sampling_rate, m);
  const bool spmd = spec.driver == Driver::kSpmd;
  // The streams the solver draws from: iteration n of the SPMD loop, inner
  // iteration j of PN's first outer iteration (its Hessian draw is j = 0).
  const auto stream = [&](int n) {
    return spmd ? static_cast<std::uint64_t>(n)
                : (std::uint64_t{1} << 20) + static_cast<std::uint64_t>(n);
  };

  {
    SpanScope layer("exec.replay");
    t.pool_start_us =
        median(time_calls("exec.pool_start", kReps, 1, [&] {
          const exec::Pool pool(spec.pool_threads);
        }));
    exec::Pool pool(spec.pool_threads);
    t.dispatch_us = median(time_calls("exec.dispatch", kReps, 16, [&] {
      pool.run(nullptr, [](int) {});
    }));
  }

  exec::Pool pool(spec.pool_threads);
  const exec::PoolGuard guard(&pool);

  {
    SpanScope layer("common.replay");
    int n = 1;
    t.sample_us = median(time_calls("common.sample", kReps, 1, [&] {
      Rng rng(seed, stream(n++));
      const auto idx = rng.sample_without_replacement(m, mbar);
      (void)idx;
    }));
  }

  // Rank 0's block of the sample partition (the whole matrix for PN).
  const data::Partition partition(m, spec.ranks);
  const std::size_t lo = partition.begin(0);
  const std::size_t hi = partition.end(0);
  la::Matrix h(d, d);
  la::Vector r(d);
  {
    SpanScope layer("sparse.replay");
    sparse::CsrMatrix local_xt;
    if (spmd) {
      t.slice_rows_us = median(time_calls("sparse.slice_rows", kReps, 1, [&] {
        local_xt = xt.slice_rows(lo, hi);
      }));
    }
    const la::Vector local_y(std::vector<double>(
        problem.y().raw().begin() + static_cast<std::ptrdiff_t>(lo),
        problem.y().raw().begin() + static_cast<std::ptrdiff_t>(hi)));
    std::vector<std::uint32_t> idx;
    std::vector<double> flops;
    const auto draw = [&](int rep) {
      Rng rng(seed, stream(rep + 1));
      idx = rng.sample_without_replacement(m, mbar);
      if (spmd) {
        idx = local_part(idx, lo, hi);
        h.fill(0.0);
        la::set_zero(r.span());
      }
    };
    t.gram_us = median(time_each("sparse.gram", kReps, draw, [&](int) {
      // SPMD ranks accumulate their share and symmetrize separately; PN
      // calls the overwriting form on the full matrix.
      flops.push_back(static_cast<double>(
          spmd ? sparse::accumulate_sampled_gram(
                     local_xt, local_y.span(), idx,
                     1.0 / static_cast<double>(mbar), h, r.span())
               : sparse::sampled_gram(xt, problem.y().span(), idx, h,
                                      r.span())));
    }));
    t.gram_flops = median(flops);

    if (!spmd) {
      // PN's row gather of its first outer iteration's Hessian draw.
      Rng rng(seed, stream(0));
      const auto hidx = rng.sample_without_replacement(m, mbar);
      t.select_rows_us =
          median(time_calls("sparse.select_rows", kReps, 1, [&] {
            const sparse::CsrMatrix xs = xt.select_rows(hidx);
            (void)xs;
          }));
    }
    la::Vector w(d, 0.0);
    la::copy(r.span(), w.span());
    la::Vector xw(m);
    t.spmv_us = median(time_calls("sparse.spmv", kReps, 1, [&] {
      xt.spmv(w.span(), xw.span());
    }));
    t.spmv_t_us = median(time_calls("sparse.spmv_t", kReps, 1, [&] {
      xt.spmv_t(xw.span(), w.span());
    }));
  }

  la::symmetrize_from_upper(h);
  la::Vector v(d), out(d);
  for (std::size_t i = 0; i < d; ++i) {
    v[i] = 1.0 / static_cast<double>(i + 1);
  }
  const int small_batch = std::max(1, static_cast<int>(20000 / (d * d)));
  {
    SpanScope layer("la.replay");
    t.symmetrize_us =
        median(time_calls("la.symmetrize", kReps, small_batch,
                          [&] { la::symmetrize_from_upper(h); }));
    t.gemv_us = median(time_calls("la.gemv", kReps, small_batch, [&] {
      la::gemv(1.0, h, v.span(), 0.0, out.span());
    }));
    if (spmd) {
      // auto_step_size's probe: a full sampled Gram on stream 0, then
      // dense power iteration on it.
      la::Matrix probe(d, d);
      la::Vector probe_r(d);
      Rng rng(seed, 0);
      const auto idx = rng.sample_without_replacement(m, mbar);
      (void)sparse::sampled_gram(xt, problem.y().span(), idx, probe,
                                 probe_r.span());
      t.power_iteration_ms =
          median(time_calls("la.power_iteration", 5, 1, [&] {
            (void)la::power_iteration(probe, 100, 1e-4, seed);
          })) * 1e-3;
    } else {
      // PN's step-size probe on the first outer iteration's Hessian rows.
      Rng rng(seed, stream(0));
      const auto hidx = rng.sample_without_replacement(m, mbar);
      const sparse::CsrMatrix xs = xt.select_rows(hidx);
      std::vector<double> tmp(xs.rows());
      const auto op = [&](std::span<const double> z, std::span<double> o) {
        xs.spmv(z, tmp);
        xs.spmv_t(tmp, o);
        la::scal(1.0 / static_cast<double>(xs.rows()), o);
      };
      t.power_iteration_ms =
          median(time_calls("la.power_iteration", 5, 1, [&] {
            (void)la::power_iteration(op, d, 60, 1e-4, derive_seed(seed, 1));
          })) * 1e-3;
    }
  }
  {
    SpanScope layer("prox.replay");
    t.soft_threshold_us =
        median(time_calls("prox.soft_threshold", kReps, small_batch * 8, [&] {
          prox::soft_threshold(v.span(), 1e-3, out.span());
        }));
  }
  if (spmd) {
    SpanScope layer("core.replay");
    const core::SolverOptions opts = spmd_options(spec, seed, false);
    t.step_size_s = median(time_calls("core.step_size", 5, 1, [&] {
                      (void)core::auto_step_size(problem, opts, mbar);
                    })) * 1e-6;
  }
  return t;
}

/// Sampled-Gram microseconds at mnist's rank-local shape (P = 2, b = 0.15,
/// m-bar = 900 >= d = 780) on each backend: the kernel the wide-d SPMD solve
/// would run.  Returns {scalar_us, simd_us}.
std::pair<double, double> mnist_gram_backends(std::uint64_t seed) {
  SpanScope layer("sparse.mnist_gram");
  const data::Dataset ds = data::make_paper_clone(
      "mnist", data::default_clone_scale("mnist"), seed);
  const std::size_t m = ds.num_samples();
  const std::size_t d = ds.num_features();
  const std::size_t mbar = batch_mbar(0.15, m);
  const data::Partition partition(m, 2);
  const std::size_t lo = partition.begin(0);
  const std::size_t hi = partition.end(0);
  const sparse::CsrMatrix local_xt = ds.xt.slice_rows(lo, hi);
  const la::Vector local_y(std::vector<double>(
      ds.y.raw().begin() + static_cast<std::ptrdiff_t>(lo),
      ds.y.raw().begin() + static_cast<std::ptrdiff_t>(hi)));
  la::Matrix h(d, d);
  la::Vector r(d);
  std::vector<std::uint32_t> idx;
  std::vector<double> scalar_us, simd_us;
  for (int rep = 0; rep < 7; ++rep) {
    Rng rng(seed, static_cast<std::uint64_t>(rep + 1));
    idx = local_part(rng.sample_without_replacement(m, mbar), lo, hi);
    for (const auto backend : {la::Backend::kScalar, la::Backend::kSimd}) {
      const la::ScopedBackend scoped(backend);
      h.fill(0.0);
      la::set_zero(r.span());
      const bool simd = backend == la::Backend::kSimd;
      int id = 0;
      {
        SpanScope span(simd ? "sparse.gram_simd" : "sparse.gram_scalar");
        id = span.id();
        (void)sparse::accumulate_sampled_gram(
            local_xt, local_y.span(), idx, 1.0 / static_cast<double>(mbar), h,
            r.span());
      }
      (simd ? simd_us : scalar_us)
          .push_back(SpanLog::global().seconds(id) * 1e6);
    }
  }
  return {median(scalar_us), median(simd_us)};
}

}  // namespace

RunOutcome run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                      double seconds, const std::string& spans_out) {
  RunOutcome outcome;
  const auto add = [&](const char* name, double value, const char* unit) {
    outcome.metrics.push_back(Metric{name, value, unit});
  };
  const bool spmd = spec.driver == Driver::kSpmd;

  // Set-up, as the end-to-end run does it; the last instance is kept.
  Instance inst;
  std::vector<double> clone_s, lipschitz_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTiming timing;
    const SpanScope span("bench.setup");
    inst = set_up(spec, seed, timing);
    clone_s.push_back(timing.clone_s);
    lipschitz_s.push_back(timing.lipschitz_s);
  }
  const core::LassoProblem& problem = *inst.problem;
  const std::size_t m = problem.num_samples();
  const std::size_t d = problem.dim();

  double f_star = 0.0;
  int reference_span = 0;
  {
    const SpanScope span("core.reference");
    reference_span = span.id();
    f_star = core::solve_reference(problem).objective;
  }
  const double reference_s = SpanLog::global().seconds(reference_span);

  // Untraced and traced solves of the workload.
  Gate gate(f_star);
  const double loop_budget = 0.3 * seconds;
  const obs::Counter& dispatches =
      obs::MetricsRegistry::global().counter("exec.dispatches");
  SolveSamples untraced;
  core::SolveResult counted;  ///< supplies the exact per-solve counts
  std::uint64_t dispatches_per_solve = 0;
  {
    const SpanScope span("core.solves_untraced");
    untraced = run_solves(spec, inst, seed, gate, false, 2, loop_budget, 10);
    // One more solve, with the pool dispatches it makes counted.
    const std::uint64_t before = dispatches.value();
    counted = solve(spec, inst, seed, false);
    dispatches_per_solve = dispatches.value() - before;
    ++untraced.attempted;
    const std::string why = gate.check(counted);
    if (!why.empty()) {
      ++untraced.failed;
      std::fprintf(stderr, "perfbench: counted solve failed: %s\n",
                   why.c_str());
    }
  }
  SolveSamples traced;
  {
    const SpanScope span("obs.solves_traced");
    auto& session = obs::TraceSession::global();
    session.start();
    traced = run_solves(spec, inst, seed, gate, true, 1, loop_budget, 10);
    session.stop();
    session.clear();
  }
  const double solve_p50 = median(untraced.seconds);
  const double traced_p50 = median(traced.seconds);

  // Layer replays at the workload's shapes.
  const KernelTimes kt = replay_kernels(spec, inst, seed);
  const std::size_t stride = d * d + d;
  const std::size_t payload = static_cast<std::size_t>(spec.k) * stride;
  DistTimes dt;
  if (spmd) {
    dt = replay_dist(*inst.group, payload);
  }

  // Baselines.
  double solve_p1_s = 0.0;
  if (spmd && !spec.pipeline && spec.ranks > 1) {
    const SpanScope span("core.solves_p1");
    Instance single;
    single.problem = std::make_unique<core::LassoProblem>(problem.dataset(),
                                                          problem.lambda());
    single.group = std::make_unique<dist::ThreadGroup>(
        1, dist::AllreduceAlgo::kCentral, check::CheckOptions{});
    WorkloadSpec p1 = spec;
    p1.ranks = 1;
    Gate p1_gate(f_star);
    const SolveSamples s =
        run_solves(p1, single, seed, p1_gate, false, 1, 0.15 * seconds, 5);
    solve_p1_s = median(s.seconds);
    untraced.attempted += s.attempted;
    untraced.failed += s.failed;
    untraced.warmup_ok = untraced.warmup_ok && s.warmup_ok;
  }
  std::pair<double, double> mnist_gram{0.0, 0.0};
  if (spec.backend == la::Backend::kSimd) {
    mnist_gram = mnist_gram_backends(seed);
  }

  // Exact per-solve counts.
  const double ranks = static_cast<double>(spec.ranks);
  const dist::CommStats& cs = counted.comm_stats;
  const double rounds = static_cast<double>(cs.allreduce_calls) / ranks;
  const double overlap =
      cs.allreduce_words > 0 ? static_cast<double>(cs.overlapped_words) /
                                   static_cast<double>(cs.allreduce_words)
                             : 0.0;
  const double s_iters = static_cast<double>(spec.s);

  // Replayed seconds per solve along rank 0's schedule, phase by phase.
  struct Row {
    std::string phase;
    double replayed_s;
    double solver_s;  ///< the traced solve's own SolveResult::phases wall
  };
  std::vector<Row> rows;
  double fixed_s = 0.0;  ///< per-solve work outside the solver's phases
  const core::SolveResult& traced_result = traced.last;
  if (spmd) {
    const double n_sampling = phase_count(counted, "sampling");
    const double n_gram = phase_count(counted, "gram");
    const double n_update = phase_count(counted, "update");
    rows.push_back({"sampling", n_sampling * kt.sample_us * 1e-6,
                    phase_seconds(traced_result, "sampling")});
    rows.push_back({"gram", n_gram * (kt.gram_us + kt.symmetrize_us) * 1e-6,
                    phase_seconds(traced_result, "gram")});
    if (spec.pipeline) {
      rows.push_back({"allreduce_post",
                      phase_count(counted, "allreduce_post") *
                          (dt.post_us + dt.decorator_us) * 1e-6,
                      phase_seconds(traced_result, "allreduce_post")});
      rows.push_back({"allreduce_wait",
                      phase_count(counted, "allreduce_wait") * dt.wait_us *
                          (1.0 - overlap) * 1e-6,
                      phase_seconds(traced_result, "allreduce_wait")});
    } else {
      rows.push_back({"allreduce",
                      phase_count(counted, "allreduce") *
                          (dt.allreduce_p50_us + dt.decorator_us) * 1e-6,
                      phase_seconds(traced_result, "allreduce")});
    }
    rows.push_back({"update",
                    n_update * s_iters * (kt.gemv_us + kt.soft_threshold_us) *
                        1e-6,
                    phase_seconds(traced_result, "update")});
    // Rank spawn, the step-size probe, the rank's row slice and the final
    // objective's SpMV.
    fixed_s = dt.group_run_us * 1e-6 + kt.step_size_s +
              kt.slice_rows_us * 1e-6 + kt.spmv_us * 1e-6;
  } else {
    const double outers = phase_count(counted, "gradient");
    const double inner = static_cast<double>(spec.inner_iters);
    rows.push_back({"gradient", outers * (kt.spmv_us + kt.spmv_t_us) * 1e-6,
                    phase_seconds(traced_result, "gradient")});
    rows.push_back({"power_iter", outers * kt.power_iteration_ms * 1e-3,
                    phase_seconds(traced_result, "power_iter")});
    rows.push_back({"inner",
                    outers * inner *
                        (kt.sample_us + kt.gram_us +
                         s_iters * (kt.gemv_us + kt.soft_threshold_us)) *
                        1e-6,
                    phase_seconds(traced_result, "inner")});
    // At least one objective evaluation per line search.
    rows.push_back({"linesearch", outers * kt.spmv_us * 1e-6,
                    phase_seconds(traced_result, "linesearch")});
    // Pool start plus each outer iteration's Hessian draw and row gather.
    fixed_s = kt.pool_start_us * 1e-6 +
              outers * (kt.sample_us + kt.select_rows_us) * 1e-6;
  }
  double covered_s = fixed_s;
  for (const Row& row : rows) {
    covered_s += row.replayed_s;
  }
  const double coverage = solve_p50 > 0.0 ? covered_s / solve_p50 : 0.0;

  const double draws = spmd ? phase_count(counted, "sampling")
                            : phase_count(counted, "gradient") *
                                  (1.0 + static_cast<double>(spec.inner_iters));
  // Pipeline slots (staleness 0 + 2 per rank), the payload snapshot of each
  // of the <= 2 posts a rank has in flight, and the group's reduce scratch;
  // the blocking path holds one pack per rank plus the scratch.
  double buffer_words = 0.0;
  if (spmd) {
    const double chunk = static_cast<double>(payload);
    buffer_words = (spec.pipeline ? ranks * (2.0 + 2.0) : ranks) * chunk + chunk;
  }

  add("dist.group_run_us", dt.group_run_us, "us");
  add("dist.allreduce_us.p50", dt.allreduce_p50_us, "us");
  add("dist.allreduce_us.p99", dt.allreduce_p99_us, "us");
  add("dist.post_us", dt.post_us, "us");
  add("dist.wait_us", dt.wait_us, "us");
  add("dist.allreduce_calls", rounds, "count");
  add("dist.allreduce_words", static_cast<double>(cs.allreduce_words) / ranks,
      "words");
  add("dist.retries", static_cast<double>(cs.retries), "count");
  add("dist.overlap_frac", overlap, "ratio");
  add("dist.buffer_mib", buffer_words * 8.0 / (1024.0 * 1024.0), "MiB");
  add("check.decorator_us", dt.decorator_us, "us");
  add("common.sample_us", kt.sample_us, "us");
  add("common.draws", draws, "count");
  add("sparse.gram_us", kt.gram_us, "us");
  add("sparse.gram_flops", kt.gram_flops, "flop");
  add("sparse.gram_gflops",
      kt.gram_us > 0.0 ? kt.gram_flops / (kt.gram_us * 1e3) : 0.0, "GFLOP/s");
  add("sparse.gram_simd_speedup",
      mnist_gram.second > 0.0 ? mnist_gram.first / mnist_gram.second : 0.0,
      "ratio");
  add("sparse.spmv_us", kt.spmv_us, "us");
  add("sparse.spmv_t_us", kt.spmv_t_us, "us");
  add("sparse.select_rows_us", kt.select_rows_us, "us");
  add("sparse.slice_rows_us", kt.slice_rows_us, "us");
  add("la.gemv_us", kt.gemv_us, "us");
  add("la.symmetrize_us", kt.symmetrize_us, "us");
  add("la.power_iteration_ms", kt.power_iteration_ms, "ms");
  add("prox.soft_threshold_us", kt.soft_threshold_us, "us");
  add("exec.pool_start_us", kt.pool_start_us, "us");
  add("exec.dispatch_us", kt.dispatch_us, "us");
  add("exec.dispatches", static_cast<double>(dispatches_per_solve), "count");
  add("core.step_size_s", kt.step_size_s, "s");
  add("core.iters", static_cast<double>(counted.iterations), "count");
  add("core.coverage", coverage, "ratio");
  add("core.unaccounted_s", solve_p50 - covered_s, "s");
  add("core.solve_untraced_s", solve_p50, "s");
  add("core.solve_traced_s", traced_p50, "s");
  add("core.solve_p1_s", solve_p1_s, "s");
  add("core.parallel_eff",
      solve_p1_s > 0.0 ? solve_p1_s / (ranks * solve_p50) : 0.0, "ratio");
  add("data.clone_s", median(clone_s), "s");
  add("data.nnz", static_cast<double>(problem.xt().nnz()), "count");
  add("core.lipschitz_s", median(lipschitz_s), "s");
  add("core.reference_s", reference_s, "s");
  add("obs.trace_overhead_frac",
      solve_p50 > 0.0 ? traced_p50 / solve_p50 - 1.0 : 0.0, "ratio");

  // Human-readable report: the cross-check and the layer self times.
  std::printf("# traced %s: m=%zu d=%zu untraced solves n=%zu p50=%.6f s, "
              "traced solves n=%zu p50=%.6f s\n",
              spec.name.c_str(), m, d, untraced.seconds.size(), solve_p50,
              traced.seconds.size(), traced_p50);
  std::printf("# %-16s %14s %14s   (seconds per solve, rank 0)\n", "phase",
              "replayed", "solver");
  for (const Row& row : rows) {
    std::printf("# %-16s %14.6f %14.6f\n", row.phase.c_str(), row.replayed_s,
                row.solver_s);
  }
  std::printf("# %-16s %14.6f\n", "outside phases", fixed_s);
  std::printf("# coverage %.4f of solve_s.p50 %.6f s; unaccounted %.6f s\n",
              coverage, solve_p50, solve_p50 - covered_s);
  if (mnist_gram.second > 0.0) {
    std::printf("# mnist-shape sampled Gram (450 local rows, d=780): scalar "
                "%.1f us, simd %.1f us\n",
                mnist_gram.first, mnist_gram.second);
  }
  std::printf("# %-10s %12s %12s %8s   (span seconds)\n", "layer", "total",
              "self", "spans");
  for (const auto& [layer, lt] : SpanLog::global().layer_times()) {
    std::printf("# %-10s %12.6f %12.6f %8llu\n", layer.c_str(), lt.total_s,
                lt.self_s, static_cast<unsigned long long>(lt.spans));
  }

  outcome.attempted = untraced.attempted + traced.attempted;
  outcome.failed = untraced.failed + traced.failed;
  outcome.correct =
      outcome.failed == 0 && untraced.warmup_ok && traced.warmup_ok;
  if (!spans_out.empty()) {
    if (!SpanLog::global().write_chrome(spans_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   spans_out.c_str());
    }
  }
  return outcome;
}

}  // namespace perfbench
