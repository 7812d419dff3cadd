// Tests for the live telemetry layer (src/obs): the SPSC telemetry ring
// and global publish gate, MetricsRegistry snapshot/delta semantics under
// concurrent writers, every watchdog alert rule from synthetic samples,
// zero false positives on clean solves, and the LiveMonitor end-to-end
// (stream framing, SolveResult::alerts annotation, fault-injected storms).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "core/prox_cocoa.hpp"
#include "core/prox_newton.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "fault/plan.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace rcf {
namespace {

// ---------------------------------------------------------------------------
// TelemetryRing (SPSC)
// ---------------------------------------------------------------------------

obs::TelemetryEvent make_event(double words) {
  obs::TelemetryEvent ev;
  ev.kind = obs::TelemetryKind::kSpan;
  ev.name = "test";
  ev.words = words;
  return ev;
}

/// Appends every pending event of `ring` to `out`.
std::size_t drain_into(obs::TelemetryRing& ring,
                       std::vector<obs::TelemetryEvent>& out) {
  return ring.drain([&out](const obs::TelemetryEvent& ev) {
    out.push_back(ev);
  });
}

TEST(TelemetryRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::TelemetryRing(5).capacity(), 8u);
  EXPECT_EQ(obs::TelemetryRing(8).capacity(), 8u);
  EXPECT_EQ(obs::TelemetryRing(0).capacity(), 2u);
}

TEST(TelemetryRing, PushDrainPreservesOrder) {
  obs::TelemetryRing ring(16);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ring.try_push(make_event(i)));
  }
  EXPECT_EQ(ring.size(), 10u);
  std::vector<obs::TelemetryEvent> out;
  EXPECT_EQ(drain_into(ring, out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].words, i);
  }
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TelemetryRing, FullRingDropsAndCounts) {
  obs::TelemetryRing ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push(make_event(i)));
  }
  EXPECT_FALSE(ring.try_push(make_event(99)));
  EXPECT_FALSE(ring.try_push(make_event(100)));
  EXPECT_EQ(ring.dropped(), 2u);
  // Drain frees capacity; pushes succeed again and the dropped events are
  // gone (drop-newest, never overwrite).
  std::vector<obs::TelemetryEvent> out;
  EXPECT_EQ(drain_into(ring, out), 4u);
  EXPECT_TRUE(ring.try_push(make_event(4)));
  out.clear();
  EXPECT_EQ(drain_into(ring, out), 1u);
  EXPECT_DOUBLE_EQ(out[0].words, 4.0);
}

TEST(TelemetryRing, ConcurrentProducerConsumer) {
  // One producer, one consumer, both hammering: every pushed event is
  // either drained in order or counted as dropped (TSan covers the memory
  // ordering of the head/tail handoff).
  obs::TelemetryRing ring(64);
  constexpr std::size_t kEvents = 20000;
  std::thread producer([&ring] {  // rcf-analyze: allow(telemetry-discipline)
    for (std::size_t i = 0; i < kEvents; ++i) {
      ring.try_push(make_event(static_cast<double>(i)));
    }
  });
  std::vector<obs::TelemetryEvent> got;
  while (true) {
    const std::size_t n = drain_into(ring, got);
    if (n == 0 && got.size() + ring.dropped() >= kEvents) {
      break;
    }
  }
  producer.join();
  drain_into(ring, got);
  EXPECT_EQ(got.size() + ring.dropped(), kEvents);
  // The drained subsequence preserves push order.
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].words, got[i].words);
  }
}

// ---------------------------------------------------------------------------
// Global publish gate
// ---------------------------------------------------------------------------

TEST(Telemetry, PublishIsGatedOff) {
  ASSERT_FALSE(obs::live_enabled());
  obs::set_live_inbox_open(true);
  obs::telemetry_publish(obs::TelemetryKind::kProgress, "gated", 1);
  std::vector<obs::TelemetryEvent> out;
  EXPECT_EQ(obs::take_live_events(out), 0u);
  obs::set_live_inbox_open(false);
}

TEST(Telemetry, PublishRecordsWhenGateOpen) {
  obs::set_live_inbox_open(true);
  obs::detail::set_gate_bit(obs::detail::kGateLive, true);
  obs::telemetry_publish(obs::TelemetryKind::kProgress, "iter", 3, 0.5, 0.1);
  obs::detail::set_gate_bit(obs::detail::kGateLive, false);
  std::vector<obs::TelemetryEvent> out;
  ASSERT_EQ(obs::take_live_events(out), 1u);
  EXPECT_EQ(out[0].kind, obs::TelemetryKind::kProgress);
  EXPECT_STREQ(out[0].name, "iter");
  EXPECT_EQ(out[0].seq, 3);
  EXPECT_DOUBLE_EQ(out[0].objective, 0.5);
  EXPECT_DOUBLE_EQ(out[0].step, 0.1);
  EXPECT_GE(out[0].start_us, 0);
  obs::set_live_inbox_open(false);
}

// ---------------------------------------------------------------------------
// MetricsRegistry snapshots / deltas
// ---------------------------------------------------------------------------

TEST(MetricsSnapshot, DeltaSubtractsCountersCarriesGauges) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  auto& c = reg.counter("snap.test.counter");
  auto& g = reg.gauge("snap.test.gauge");
  c.add(5);
  g.set(1.5);
  const auto prev = reg.snapshot();
  c.add(7);
  g.set(9.0);
  const auto cur = reg.snapshot();
  const auto delta = obs::delta_snapshot(prev, cur);
  EXPECT_EQ(delta.counters.at("snap.test.counter"), 7u);
  // Gauges have no meaningful delta; the current value carries through.
  EXPECT_DOUBLE_EQ(delta.gauges.at("snap.test.gauge"), 9.0);
}

TEST(MetricsSnapshot, DeltaClampsAfterResetAndCountsNewInstruments) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  auto& c = reg.counter("snap.clamp.counter");
  c.add(10);
  const auto prev = reg.snapshot();
  c.reset();
  c.add(3);  // 3 < 10: a naive subtraction would underflow
  reg.counter("snap.clamp.fresh").add(2);
  const auto cur = reg.snapshot();
  const auto delta = obs::delta_snapshot(prev, cur);
  // Post-reset the delta is the count since the reset, never underflow.
  EXPECT_EQ(delta.counters.at("snap.clamp.counter"), 3u);
  EXPECT_EQ(delta.counters.at("snap.clamp.fresh"), 2u);
}

TEST(MetricsSnapshot, MonotoneUnderConcurrentWriters) {
  // Counters only ever increase, so successive snapshots taken while
  // writer threads hammer the instruments must be monotone (the relaxed
  // loads never tear a monotone counter backwards).  TSan covers the
  // access pattern itself.
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  auto& c = reg.counter("snap.mono.counter");
  std::atomic<bool> stop{false};
  std::thread writer([&] {  // rcf-analyze: allow(telemetry-discipline)
    while (!stop.load(std::memory_order_relaxed)) {
      c.add(1);
    }
  });
  std::uint64_t prev_count = 0;
  for (int pass = 0; pass < 200; ++pass) {
    const auto snap = reg.snapshot();
    const std::uint64_t count = snap.counters.at("snap.mono.counter");
    EXPECT_GE(count, prev_count);
    prev_count = count;
  }
  stop.store(true);
  writer.join();
  reg.reset();
}

// ---------------------------------------------------------------------------
// Watchdog rules from synthetic samples
// ---------------------------------------------------------------------------

obs::ConvergenceRecord conv_rec(std::uint64_t iter, double objective,
                                double step) {
  obs::ConvergenceRecord rec;
  rec.iteration = iter;
  rec.objective = objective;
  rec.step = step;
  return rec;
}

obs::HealthSample sample_with_conv(std::vector<obs::ConvergenceRecord> conv) {
  obs::HealthSample sample;
  sample.conv = std::move(conv);
  return sample;
}

TEST(Watchdog, CleanConvergingSeriesRaisesNothing) {
  obs::Watchdog dog;
  // Geometric decay with shrinking steps: the plateau at the end comes
  // with collapsing steps, which the step-ratio test must reject.
  std::vector<obs::ConvergenceRecord> conv;
  double f = 1.0;
  double step = 0.1;
  for (std::uint64_t i = 0; i < 400; ++i) {
    conv.push_back(conv_rec(i, 0.25 + f, step));
    f *= 0.95;
    step *= 0.95;
  }
  const auto alerts = dog.on_sample(sample_with_conv(std::move(conv)));
  EXPECT_TRUE(alerts.empty());
}

TEST(Watchdog, RestartedSolveResetsRunState) {
  obs::WatchdogConfig config;
  config.stall_window = 8;
  obs::Watchdog dog(config);
  // Two identical converging runs back to back, as a bench loop re-running
  // the solver under one monitor produces.  Without run-state reset the
  // window straddles the restart (low run-1 tail, high run-2 head): a
  // negative "improvement" with fresh large steps, i.e. a false stall.
  for (int run = 0; run < 2; ++run) {
    std::vector<obs::ConvergenceRecord> conv;
    double f = 1.0;
    double step = 0.1;
    for (std::uint64_t i = 0; i < 60; ++i) {
      conv.push_back(conv_rec(i, 0.25 + f, step));
      f *= 0.9;
      step *= 0.9;
    }
    const auto alerts = dog.on_sample(sample_with_conv(std::move(conv)));
    EXPECT_TRUE(alerts.empty()) << "run " << run;
  }
}

TEST(Watchdog, StallFiresOncePerEpisode) {
  obs::WatchdogConfig config;
  config.stall_window = 8;
  obs::Watchdog dog(config);
  std::vector<obs::ConvergenceRecord> conv;
  for (std::uint64_t i = 0; i < 32; ++i) {
    conv.push_back(conv_rec(i, 1.0, 0.05));  // flat objective, live steps
  }
  auto alerts = dog.on_sample(sample_with_conv(std::move(conv)));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kStall);
  // Still stalled next sample: episode already reported, no new alert.
  alerts = dog.on_sample(sample_with_conv({conv_rec(32, 1.0, 0.05)}));
  EXPECT_TRUE(alerts.empty());
}

TEST(Watchdog, DivergenceFires) {
  obs::Watchdog dog;
  std::vector<obs::ConvergenceRecord> conv;
  for (std::uint64_t i = 0; i < 4; ++i) {
    conv.push_back(conv_rec(i, 1.0 - 0.1 * static_cast<double>(i), 0.1));
  }
  conv.push_back(conv_rec(4, 1e6, 0.1));  // 1e6 > 1e4 * best(0.7)
  const auto alerts = dog.on_sample(sample_with_conv(std::move(conv)));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kNonFinite);
  EXPECT_DOUBLE_EQ(alerts[0].value, 1e6);
}

TEST(Watchdog, NonFiniteStepFiresOnlyAfterFiniteSteps) {
  obs::Watchdog dog;
  // NaN step before any finite one means "untracked", not broken.
  auto alerts = dog.on_sample(
      sample_with_conv({conv_rec(0, 1.0, std::nan(""))}));
  EXPECT_TRUE(alerts.empty());
  alerts = dog.on_sample(sample_with_conv({conv_rec(1, 0.9, 0.1)}));
  EXPECT_TRUE(alerts.empty());
  alerts = dog.on_sample(
      sample_with_conv({conv_rec(2, 0.8, std::nan(""))}));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kNonFinite);
}

TEST(Watchdog, StragglerNeedsLagAndIdleGrace) {
  obs::WatchdogConfig config;
  config.straggler_epochs = 8;
  config.straggler_grace_us = 1000;
  obs::Watchdog dog(config);
  obs::HealthSample sample;
  sample.ranks = {{0, 100, 10}, {1, 100, 10}, {2, 92, 400}};
  // Rank 2 lags by 8 epochs but has not been idle long enough.
  EXPECT_TRUE(dog.on_sample(sample).empty());
  sample.ranks[2].idle_us = 2000;
  auto alerts = dog.on_sample(sample);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kStraggler);
  EXPECT_EQ(alerts[0].rank, 2);
  // Still lagging: deduplicated until it recovers.
  EXPECT_TRUE(dog.on_sample(sample).empty());
  // Recovery re-arms the rule.
  sample.ranks[2] = {2, 100, 10};
  EXPECT_TRUE(dog.on_sample(sample).empty());
  sample.ranks[2] = {2, 80, 5000};
  alerts = dog.on_sample(sample);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kStraggler);
}

TEST(Watchdog, RetryStormUsesPerWindowDelta) {
  obs::WatchdogConfig config;
  config.retry_storm = 4;
  obs::Watchdog dog(config);
  obs::HealthSample sample;
  sample.retries_total = 100;
  // First sample only establishes the baseline, even at a high total.
  EXPECT_TRUE(dog.on_sample(sample).empty());
  sample.retries_total = 103;  // +3 < 4
  EXPECT_TRUE(dog.on_sample(sample).empty());
  sample.retries_total = 108;  // +5 >= 4
  auto alerts = dog.on_sample(sample);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kRetryStorm);
  EXPECT_DOUBLE_EQ(alerts[0].value, 5.0);
  // Calm window re-arms; the next storm alerts again.
  sample.retries_total = 109;
  EXPECT_TRUE(dog.on_sample(sample).empty());
  sample.retries_total = 120;
  EXPECT_EQ(dog.on_sample(sample).size(), 1u);
}

TEST(Watchdog, RingOverflowFiresOnNewDrops) {
  obs::Watchdog dog;
  obs::HealthSample sample;
  sample.drops_total = 0;
  EXPECT_TRUE(dog.on_sample(sample).empty());
  sample.drops_total = 7;
  auto alerts = dog.on_sample(sample);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kRingOverflow);
  EXPECT_DOUBLE_EQ(alerts[0].value, 7.0);
  // No new drops, no new alert.
  EXPECT_TRUE(dog.on_sample(sample).empty());
}

TEST(Watchdog, AlertJsonIsWellFormed) {
  obs::Alert alert;
  alert.kind = obs::AlertKind::kStraggler;
  alert.rank = 3;
  alert.iteration = 17;
  alert.value = 9.0;
  alert.threshold = 8.0;
  alert.detail = "rank 3 \"lags\"";
  const std::string json = obs::alert_json(alert);
  EXPECT_NE(json.find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"straggler\""), std::string::npos);
  EXPECT_NE(json.find("\\\"lags\\\""), std::string::npos);
}

TEST(Watchdog, ScanConvergenceCleanOnRealSolve) {
  // The acceptance bar: zero false positives on a clean converging solve,
  // for every solver the solve frame annotates.
  data::SyntheticOptions gen;
  gen.num_samples = 400;
  gen.num_features = 60;
  gen.density = 0.3;
  const auto dataset = data::make_regression(gen);
  const core::LassoProblem problem(dataset, 0.05);
  core::SolverOptions opts;
  opts.max_iters = 150;
  for (const auto& result : {core::solve_rc_sfista(problem, opts),
                             core::solve_proximal_newton(problem, {}),
                             core::solve_prox_cocoa(problem, {})}) {
    EXPECT_TRUE(result.ok()) << result.solver;
    EXPECT_TRUE(obs::scan_convergence(result.conv.ordered()).empty())
        << result.solver;
    EXPECT_TRUE(result.alerts.empty()) << result.solver;
  }
}

// ---------------------------------------------------------------------------
// LiveMonitor end-to-end
// ---------------------------------------------------------------------------

/// Parses a length-prefixed JSONL stream; returns the JSON payloads.
std::vector<std::string> parse_frames(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();
  std::vector<std::string> frames;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (data[pos] == '\n') {
      ++pos;
      continue;
    }
    const std::size_t tab = data.find('\t', pos);
    EXPECT_NE(tab, std::string::npos) << "unterminated length prefix";
    if (tab == std::string::npos) {
      break;
    }
    const std::size_t len =
        static_cast<std::size_t>(std::stoul(data.substr(pos, tab - pos)));
    EXPECT_LE(tab + 1 + len, data.size()) << "truncated frame";
    if (tab + 1 + len > data.size()) {
      break;
    }
    frames.push_back(data.substr(tab + 1, len));
    pos = tab + 1 + len;
  }
  return frames;
}

class TempFile {
 public:
  explicit TempFile(const char* stem) {
    path_ = ::testing::TempDir() + stem;
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One labelled solve for the per-solver LiveMonitor cases.
struct NamedSolve {
  const char* name;
  std::function<core::SolveResult()> run;
};

TEST(LiveMonitor, CleanSolveStreamsSnapshotsWithZeroAlerts) {
  data::SyntheticOptions gen;
  gen.num_samples = 600;
  gen.num_features = 64;
  gen.density = 0.3;
  const auto dataset = data::make_regression(gen);
  const core::LassoProblem problem(dataset, 0.05);
  core::SolverOptions opts;
  opts.max_iters = 80;
  core::PnOptions pn_opts;
  pn_opts.max_outer = 10;
  core::CocoaOptions cocoa_opts;
  cocoa_opts.max_rounds = 80;
  const NamedSolve solves[] = {
      {"rc-sfista", [&] { return core::solve_rc_sfista(problem, opts); }},
      {"pn", [&] { return core::solve_proximal_newton(problem, pn_opts); }},
      {"prox-cocoa",
       [&] { return core::solve_prox_cocoa(problem, cocoa_opts); }},
  };

  for (const NamedSolve& solve : solves) {
    SCOPED_TRACE(solve.name);
    TempFile stream("live_clean.jsonl");
    obs::LiveConfig config;
    config.out = stream.path();
    config.period_ms = 10;
    ASSERT_TRUE(obs::LiveMonitor::global().start(config));
    EXPECT_TRUE(obs::LiveMonitor::global().running());
    EXPECT_FALSE(obs::LiveMonitor::global().start(config));  // already running

    const auto result = solve.run();

    obs::LiveMonitor::global().sample_now();
    EXPECT_EQ(obs::LiveMonitor::global().alert_count(), 0u);
    obs::LiveMonitor::global().stop();
    EXPECT_FALSE(obs::LiveMonitor::global().running());

    EXPECT_TRUE(result.alerts.empty());
    const auto frames = parse_frames(stream.path());
    ASSERT_GE(frames.size(), 2u);
    EXPECT_NE(frames[0].find("\"type\":\"header\""), std::string::npos);
    bool saw_progress = false;
    for (std::size_t i = 1; i < frames.size(); ++i) {
      EXPECT_NE(frames[i].find("\"type\":\"snapshot\""), std::string::npos);
      if (frames[i].find("\"epoch\":0") == std::string::npos) {
        saw_progress = true;
      }
    }
    EXPECT_TRUE(saw_progress) << "no snapshot observed solver progress";
    if (std::string_view(solve.name) == "prox-cocoa") {
      // The live monitor alone times the worker sweeps.
      const obs::PhaseStat* local = obs::find_phase(result.phases,
                                                    "local_solve");
      ASSERT_NE(local, nullptr);
      EXPECT_GT(local->seconds, 0.0);
    }
  }
}

TEST(LiveMonitor, DistributedSolveReportsAllRanks) {
  TempFile stream("live_dist.jsonl");
  obs::LiveConfig config;
  config.out = stream.path();
  config.period_ms = 10;
  ASSERT_TRUE(obs::LiveMonitor::global().start(config));

  const auto dataset = data::make_paper_clone("SUSY", 0.002);
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.track_history = false;
  dist::ThreadGroup group(4);
  const auto result = core::solve_rc_sfista_distributed(problem, opts, group);

  obs::LiveMonitor::global().sample_now();
  const std::uint64_t alerts = obs::LiveMonitor::global().alert_count();
  obs::LiveMonitor::global().stop();

  EXPECT_EQ(alerts, 0u) << "clean distributed solve must not alert";
  EXPECT_TRUE(result.alerts.empty());
  const auto frames = parse_frames(stream.path());
  ASSERT_GE(frames.size(), 2u);
  bool saw_all_ranks = false;
  for (const std::string& frame : frames) {
    if (frame.find("\"rank\":3") != std::string::npos) {
      saw_all_ranks = true;
    }
  }
  EXPECT_TRUE(saw_all_ranks) << "rank 3 never appeared in any snapshot";
}

TEST(LiveMonitor, RetryStormAnnotatesSolveResult) {
  // Transient faults force RetryingComm retries; with the storm threshold at
  // 1 the watchdog must alert, and the runtime alert must land on
  // SolveResult::alerts -- for the engine's SPMD ranks and for proximal
  // Newton's chunk reductions on its 1-rank world.
  const auto dataset = data::make_paper_clone("SUSY", 0.002);
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.track_history = false;
  core::PnOptions pn_opts;
  pn_opts.max_outer = 4;
  pn_opts.inner_iters = 16;
  pn_opts.inner = core::PnInnerSolver::kRcSfista;
  pn_opts.k = 4;  // 4 chunk reductions per outer iteration, 16 in all
  pn_opts.track_history = false;
  // Single-shot transients at distinct call indices: each costs exactly one
  // retry (never exhausting the retry budget), spread across the run.
  // (k=4 over 40 iterations means only ~10 collectives per engine rank, so
  // the targeted call indices must stay small.)
  struct StormCase {
    NamedSolve solve;
    const char* plan;
  };
  const StormCase cases[] = {
      {{"rc-sfista-distributed",
        [&] {
          dist::ThreadGroup group(4);
          return core::solve_rc_sfista_distributed(problem, opts, group);
        }},
       "transient:rank=1,call=2;transient:rank=1,call=4;"
       "transient:rank=1,call=6;transient:rank=1,call=8"},
      {{"pn", [&] { return core::solve_proximal_newton(problem, pn_opts); }},
       "transient:rank=0,call=2;transient:rank=0,call=6;"
       "transient:rank=0,call=10;transient:rank=0,call=14"},
  };

  for (const StormCase& c : cases) {
    SCOPED_TRACE(c.solve.name);
    TempFile stream("live_storm.jsonl");
    obs::LiveConfig config;
    config.out = stream.path();
    config.period_ms = 2;
    config.watchdog.retry_storm = 1;
    ASSERT_TRUE(obs::LiveMonitor::global().start(config));
    // The first sample is the watchdog's retry baseline; take it before the
    // solve, so every retry lands in a later window.
    obs::LiveMonitor::global().sample_now();

    fault::ScopedFaultPlan plan{std::string_view(c.plan)};
    const auto result = c.solve.run();

    obs::LiveMonitor::global().stop();

    ASSERT_TRUE(result.ok()) << result.failure_reason;
    EXPECT_GE(result.comm_stats.retries, 1u);
    bool saw_storm = false;
    for (const obs::Alert& alert : result.alerts) {
      if (alert.kind == obs::AlertKind::kRetryStorm) {
        saw_storm = true;
      }
    }
    EXPECT_TRUE(saw_storm) << "retry storm not annotated on SolveResult";
    bool alert_frame = false;
    for (const std::string& frame : parse_frames(stream.path())) {
      if (frame.find("\"type\":\"alert\"") != std::string::npos &&
          frame.find("\"kind\":\"retry_storm\"") != std::string::npos) {
        alert_frame = true;
      }
    }
    EXPECT_TRUE(alert_frame) << "retry-storm alert missing from the stream";
  }
}

/// The stream's last snapshot, parsed.
JsonValue last_snapshot(const std::string& path) {
  JsonValue last;
  for (const std::string& frame : parse_frames(path)) {
    auto doc = parse_json(frame);
    EXPECT_TRUE(doc.has_value()) << frame;
    if (doc && doc->string_or("type", "") == "snapshot") {
      last = std::move(*doc);
    }
  }
  return last;
}

TEST(LiveMonitor, FoldCountsEachCollectiveOnceAndTimesComm) {
  // The fold counts a collective once, at its allreduce span, and times
  // communication and waiting from the spans themselves -- on the blocking
  // path and on the pipelined one, whose allreduce runs on the rank's
  // progress thread.
  const auto dataset = data::make_paper_clone("SUSY", 0.002);
  const core::LassoProblem problem(dataset, 0.005);
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "blocking");
    TempFile stream("live_fold.jsonl");
    obs::LiveConfig config;
    config.out = stream.path();
    config.period_ms = 5;
    ASSERT_TRUE(obs::LiveMonitor::global().start(config));
    core::SolverOptions opts;
    opts.max_iters = 40;
    opts.sampling_rate = 0.2;
    opts.k = 4;
    opts.pipeline = pipeline;
    opts.track_history = false;
    dist::ThreadGroup group(4);
    const auto result =
        core::solve_rc_sfista_distributed(problem, opts, group);
    obs::LiveMonitor::global().stop();
    ASSERT_TRUE(result.ok()) << result.failure_reason;

    const JsonValue snapshot = last_snapshot(stream.path());
    const JsonValue* ranks = snapshot.find("ranks");
    ASSERT_TRUE(ranks != nullptr && ranks->is_array());
    ASSERT_EQ(ranks->array.size(), 4u);
    for (const JsonValue& rank : ranks->array) {
      SCOPED_TRACE(rank.number_or("rank", -1));
      EXPECT_EQ(rank.number_or("collectives", -1),
                static_cast<double>(result.comm_stats.allreduce_calls / 4));
      const JsonValue* busy = rank.find("busy_us");
      ASSERT_NE(busy, nullptr);
      EXPECT_GT(busy->number_or("comm", 0) + busy->number_or("wait", 0), 0.0);
    }
  }
}

TEST(LiveMonitor, TimesCollectivePhasesWithoutTracing) {
  // PhaseStat::seconds is measured when tracing or the live monitor is on,
  // for the collective phases as for the others.
  ASSERT_FALSE(obs::TraceSession::global().enabled());
  obs::LiveConfig config;
  config.out = "";
  ASSERT_TRUE(obs::LiveMonitor::global().start(config));
  const auto dataset = data::make_paper_clone("SUSY", 0.002);
  const core::LassoProblem problem(dataset, 0.005);
  core::SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.track_history = false;
  dist::ThreadGroup group(2);
  const auto result = core::solve_rc_sfista_distributed(problem, opts, group);
  obs::LiveMonitor::global().stop();
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  for (const char* name : {"gram", "allreduce"}) {
    const obs::PhaseStat* phase = obs::find_phase(result.phases, name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_GT(phase->seconds, 0.0) << name;
  }
}

/// Sets an environment variable for the scope's lifetime.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(LiveMonitor, PeriodEnvAgreesOnCliAndEnvPaths) {
  // `--live=<path>` (ScopedSession) and RCF_LIVE=<path> read
  // RCF_LIVE_PERIOD_MS through one function: the stream headers agree, and
  // a value that is not a positive integer is named in a warning and the
  // default period kept.
  const int fallback = obs::LiveConfig{}.period_ms;
  const struct {
    const char* value;
    int period_ms;
  } cases[] = {{"0", fallback}, {"-5", fallback}, {"abc", fallback},
               {"100", 100}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.value);
    const ScopedEnv period("RCF_LIVE_PERIOD_MS", c.value);
    TempFile cli_stream("live_period_cli.jsonl");
    TempFile env_stream("live_period_env.jsonl");
    ::testing::internal::CaptureStderr();
    { const obs::ScopedSession session("", "", "", cli_stream.path()); }
    {
      const ScopedEnv live("RCF_LIVE", env_stream.path());
      obs::live_autoconfigure_from_env();
      EXPECT_TRUE(obs::LiveMonitor::global().running());
      obs::LiveMonitor::global().stop();
    }
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    const bool valid = std::string_view(c.value) == "100";
    std::size_t named = 0;
    for (std::size_t at = warnings.find(std::string("RCF_LIVE_PERIOD_MS=") +
                                        c.value);
         at != std::string::npos;
         at = warnings.find("RCF_LIVE_PERIOD_MS=", at + 1)) {
      ++named;
    }
    EXPECT_EQ(named, valid ? 0u : 2u) << warnings;
    for (const std::string* path : {&cli_stream.path(), &env_stream.path()}) {
      const auto frames = parse_frames(*path);
      ASSERT_FALSE(frames.empty()) << *path;
      const auto header = parse_json(frames[0]);
      ASSERT_TRUE(header.has_value());
      EXPECT_EQ(header->number_or("period_ms", -1), c.period_ms) << *path;
    }
  }
}

TEST(LiveMonitor, AlertsSinceHonorsMark) {
  obs::LiveConfig config;
  config.out = "";  // sample without streaming
  config.period_ms = 1000;
  ASSERT_TRUE(obs::LiveMonitor::global().start(config));
  const std::uint64_t mark = obs::LiveMonitor::global().alert_count();
  EXPECT_TRUE(obs::LiveMonitor::global().alerts_since(mark).empty());
  obs::LiveMonitor::global().stop();
}

}  // namespace
}  // namespace rcf
