// Tests for the observability subsystem (src/obs): span recording and
// Chrome-trace export, the metrics registry, and the span/CommStats
// agreement on real multi-rank ThreadComm solves.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcf {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (objects, arrays, strings, numbers, literals)
// -- enough to prove the emitted traces are well-formed without a JSON
// library dependency.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Restarts the global session with no outputs and drops prior events, so
/// each test observes only its own spans.
obs::TraceSession& fresh_session() {
  auto& session = obs::TraceSession::global();
  session.start();
  return session;
}

data::Dataset make_dataset(std::size_t m = 600, std::size_t d = 24) {
  data::SyntheticOptions gen;
  gen.num_samples = m;
  gen.num_features = d;
  gen.density = 0.4;
  gen.seed = 13;
  return data::make_regression(gen);
}

/// Keeps the dataset alive alongside the problem that points into it.
struct TestProblem {
  data::Dataset dataset = make_dataset();
  core::LassoProblem problem{dataset, 0.01};
};

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

TEST(TraceSession, SpansNest) {
  auto& session = fresh_session();
  {
    RCF_TRACE_SCOPE("outer");
    { RCF_TRACE_SCOPE("inner"); }
  }
  session.stop();

  const auto events = session.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner completes (and is recorded) first.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.dur_us, outer.start_us + outer.dur_us);
  EXPECT_EQ(inner.rank, 0);
  session.clear();
}

TEST(TraceSession, DisabledSessionRecordsNothing) {
  auto& session = fresh_session();
  session.stop();
  session.clear();
  ASSERT_FALSE(session.enabled());
  {
    RCF_TRACE_SCOPE("ghost");
    RCF_TRACE_SCOPE_W("ghost_words", 128);
    obs::PhaseAgg agg;
    obs::timed_phase(/*tracing=*/true, agg, "ghost_phase", 2.0, [] {});
  }
  EXPECT_TRUE(session.snapshot().empty());
  EXPECT_EQ(session.count_spans("ghost"), 0u);
}

TEST(TraceSession, PayloadWordsAttachToSpans) {
  auto& session = fresh_session();
  { RCF_TRACE_SCOPE_W("payload", 600); }
  session.stop();
  const auto events = session.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].words, 600.0);
  session.clear();
}

TEST(TraceSession, KeepsEveryEventWhenRingsFillAndTheMonitorToggles) {
  // Each producer emits more spans than its ring holds while the live
  // monitor starts and stops mid-burst: a full ring is drained into the
  // trace store in place, no monitor transition drops a span, and
  // snapshot() sees the spans of producers that are still running.
  auto& session = fresh_session();
  constexpr int kThreads = 4;
  const std::size_t per_thread = 3 * obs::TelemetryRing::kDefaultCapacity + 17;
  const std::size_t total = kThreads * per_thread;
  std::atomic<std::size_t> emitted{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> producers;  // rcf-analyze: allow(telemetry-discipline) raw producers stress the rings
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&emitted, &release, per_thread, t] {
      obs::set_thread_rank(t);
      for (std::size_t i = 0; i < per_thread; ++i) {
        RCF_TRACE_SCOPE("burst");
        emitted.fetch_add(1, std::memory_order_relaxed);
      }
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  const auto wait_for = [&emitted](std::size_t n) {
    while (emitted.load(std::memory_order_relaxed) < n) {
      std::this_thread::yield();
    }
  };
  obs::LiveConfig config;
  config.out = "";
  config.period_ms = 1;
  wait_for(total / 8);
  EXPECT_TRUE(obs::LiveMonitor::global().start(config));
  wait_for(total / 2);
  obs::LiveMonitor::global().stop();
  wait_for(5 * total / 8);
  EXPECT_TRUE(obs::LiveMonitor::global().start(config));
  wait_for(total);
  obs::LiveMonitor::global().stop();
  session.stop();

  const auto count_per_rank = [&session] {
    std::vector<std::size_t> per_rank(kThreads, 0);
    for (const auto& ev : session.snapshot()) {
      EXPECT_STREQ(ev.name, "burst");
      ++per_rank[static_cast<std::size_t>(ev.rank)];
    }
    return per_rank;
  };
  const std::vector<std::size_t> expected(kThreads, per_thread);
  EXPECT_EQ(count_per_rank(), expected) << "producers still running";
  release.store(true, std::memory_order_release);
  for (std::thread& producer : producers) {
    producer.join();
  }
  EXPECT_EQ(count_per_rank(), expected) << "producers joined";
  session.clear();
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(TraceExport, ChromeTraceParsesAndRoundTrips) {
  auto& session = fresh_session();
  {
    RCF_TRACE_SCOPE("alpha");
    RCF_TRACE_SCOPE_W("beta \"quoted\"\n", 42);
  }
  session.stop();
  const auto events = session.snapshot();
  ASSERT_EQ(events.size(), 2u);

  std::ostringstream chrome;
  session.write_chrome_trace(chrome);
  const std::string text = chrome.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  // One "X" duration event per recorded span.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), events.size());
  // The awkward name survived escaping.
  EXPECT_NE(text.find("beta \\\"quoted\\\"\\n"), std::string::npos);

  std::ostringstream jsonl;
  session.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++n;
  }
  EXPECT_EQ(n, events.size());
  session.clear();
}

TEST(TraceExport, PhaseTableListsEveryPhase) {
  obs::PhaseSummary summary;
  obs::PhaseAgg agg;
  agg.count = 3;
  agg.us = 1500;
  agg.words = 600.0;
  obs::append_phase(summary, "allreduce", agg);
  obs::append_phase(summary, "never_ran", obs::PhaseAgg{});
  ASSERT_EQ(summary.size(), 1u);  // zero-count phases are skipped
  EXPECT_DOUBLE_EQ(summary[0].seconds, 1.5e-3);
  const std::string table = obs::phase_table(summary);
  EXPECT_NE(table.find("allreduce"), std::string::npos);
  EXPECT_NE(obs::find_phase(summary, "allreduce"), nullptr);
  EXPECT_EQ(obs::find_phase(summary, "missing"), nullptr);
}

TEST(TraceExport, TimedPhaseCountsWithoutTracing) {
  obs::PhaseAgg agg;
  int runs = 0;
  obs::timed_phase(/*tracing=*/false, agg, "phase", 10.0, [&] { ++runs; });
  obs::timed_phase(/*tracing=*/false, agg, "phase", 10.0, [&] { ++runs; });
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(agg.count, 2u);
  EXPECT_DOUBLE_EQ(agg.words, 20.0);
  EXPECT_EQ(agg.us, 0);  // no timing without tracing
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CountersAndGauges) {
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  auto& counter = registry.counter("test.counter");
  counter.add(3);
  counter.add(4);
  EXPECT_EQ(counter.value(), 7u);
  EXPECT_EQ(&counter, &registry.counter("test.counter"));  // stable reference
  auto& gauge = registry.gauge("test.gauge");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);  // reset zeroes, reference stays valid
}

TEST(Metrics, RegistryJsonIsValid) {
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  registry.counter("json.counter").add(5);
  registry.gauge("json.gauge").set(1.25);
  const std::string text = registry.to_json();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("json.counter"), std::string::npos);
  registry.reset();
}

TEST(Metrics, JsonEscapingSurvivesHostileNames) {
  obs::MetricsRegistry reg;
  reg.counter("weird \"name\"\n\twith\\escapes").add(7);
  const auto doc = parse_json(reg.to_json());
  ASSERT_TRUE(doc.has_value() && doc->is_object());
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* v = counters->find("weird \"name\"\n\twith\\escapes");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->number, 7.0);
}

// ---------------------------------------------------------------------------
// Span counts agree with CommStats on a real 4-rank ThreadComm solve
// ---------------------------------------------------------------------------

core::SolveResult traced_distributed_solve(const core::LassoProblem& problem,
                                           int ranks, int k) {
  core::SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.2;
  opts.k = k;
  opts.track_history = false;
  dist::ThreadGroup group(ranks);
  return core::solve_rc_sfista_distributed(problem, opts, group);
}

TEST(TraceIntegration, AllreduceSpansMatchCommStats) {
  const TestProblem tp;
  const core::LassoProblem& problem = tp.problem;
  auto& session = fresh_session();
  obs::MetricsRegistry::global().reset();

  const auto result = traced_distributed_solve(problem, /*ranks=*/4, /*k=*/4);
  session.stop();

  // One "allreduce" span per collective call per rank: 4 ranks x
  // ceil(40 / 4) rounds.
  const auto spans = session.count_spans("allreduce");
  EXPECT_EQ(spans, result.comm_stats.allreduce_calls);
  EXPECT_EQ(spans, 4u * 10u);
  // Spans carry every rank id.
  bool saw_rank[4] = {false, false, false, false};
  for (const auto& ev : session.snapshot()) {
    ASSERT_GE(ev.rank, 0);
    ASSERT_LT(ev.rank, 4);
    saw_rank[ev.rank] = true;
  }
  for (const bool saw : saw_rank) {
    EXPECT_TRUE(saw);
  }
  // Convergence telemetry rides along on the distributed path too.
  EXPECT_EQ(result.conv.size(), 40u);
  // The enabled session also published the summed comm counters.
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("comm.thread.allreduce_calls")
          .value(),
      result.comm_stats.allreduce_calls);
  session.clear();
  obs::MetricsRegistry::global().reset();
}

TEST(TraceIntegration, OverlapDepthShrinksAllreduceSpans) {
  const TestProblem tp;
  const core::LassoProblem& problem = tp.problem;
  auto& session = fresh_session();

  traced_distributed_solve(problem, /*ranks=*/4, /*k=*/1);
  session.stop();
  const auto spans_k1 = session.count_spans("allreduce");

  session.start();
  traced_distributed_solve(problem, /*ranks=*/4, /*k=*/8);
  session.stop();
  const auto spans_k8 = session.count_spans("allreduce");

  // ceil(40/1) = 40 rounds vs ceil(40/8) = 5: exactly k-fold fewer.
  EXPECT_EQ(spans_k1, 4u * 40u);
  EXPECT_EQ(spans_k8, 4u * 5u);
  EXPECT_EQ(spans_k1, 8u * spans_k8);
  session.clear();
}

TEST(TraceIntegration, SequentialEnginePhasesMatchSchedule) {
  const TestProblem tp;
  const core::LassoProblem& problem = tp.problem;
  auto& session = fresh_session();
  core::SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.2;
  opts.k = 8;
  opts.track_history = false;
  const auto result = core::solve_rc_sfista(problem, opts);
  session.stop();

  const auto* ar = obs::find_phase(result.phases, "allreduce");
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->count, 5u);  // ceil(40 / 8) modeled rounds
  EXPECT_EQ(session.count_spans("allreduce"), 5u);
  const auto* update = obs::find_phase(result.phases, "update");
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->count, 40u);  // one sweep per iteration (S = 1 each)
  EXPECT_GT(obs::find_phase(result.phases, "gram")->seconds, 0.0);
  session.clear();
}

TEST(TraceIntegration, PooledChunkPhasesMatchSchedule) {
  // The same schedule on a 2-wide pool builds each chunk of 8 blocks in one
  // dispatch, sampling inside the tasks.  The phases still count one per
  // block, the chunk's wall time is charged to gram once (not summed over
  // threads), and each task is one span per chunk.
  const TestProblem tp;
  const core::LassoProblem& problem = tp.problem;
  auto& session = fresh_session();
  core::SolverOptions opts;
  opts.max_iters = 40;
  opts.sampling_rate = 0.2;
  opts.k = 8;
  opts.threads = 2;
  opts.track_history = false;
  const auto result = core::solve_rc_sfista(problem, opts);
  session.stop();

  const auto* sampling = obs::find_phase(result.phases, "sampling");
  const auto* gram = obs::find_phase(result.phases, "gram");
  ASSERT_NE(sampling, nullptr);
  ASSERT_NE(gram, nullptr);
  EXPECT_EQ(sampling->count, 40u);
  EXPECT_EQ(gram->count, 40u);
  EXPECT_GT(gram->seconds, 0.0);
  EXPECT_EQ(session.count_spans("gram.chunk"), 10u);  // 5 chunks x 2 tasks
  double phase_seconds = 0.0;
  for (const auto& phase : result.phases) {
    phase_seconds += phase.seconds;
  }
  EXPECT_LE(phase_seconds, result.wall_seconds);
  session.clear();
}

TEST(TraceIntegration, SolverOptionsCanOptOut) {
  const TestProblem tp;
  const core::LassoProblem& problem = tp.problem;
  auto& session = fresh_session();
  core::SolverOptions opts;
  opts.max_iters = 8;
  opts.sampling_rate = 0.2;
  opts.track_history = false;
  opts.trace = false;
  const auto result = core::solve_rc_sfista(problem, opts);
  opts.pipeline = true;
  const auto pipelined = core::solve_rc_sfista(problem, opts);
  session.stop();

  // The untraced 1-rank world runs its collectives in aux mode, where
  // SeqComm records no span at all.
  for (const char* name :
       {"allreduce", "allreduce_post", "allreduce_wait", "aux_collective"}) {
    EXPECT_EQ(session.count_spans(name), 0u) << name;
  }
  EXPECT_TRUE(pipelined.ok());
  // Counts are still maintained; only spans/timing are suppressed.
  const auto* ar = obs::find_phase(result.phases, "allreduce");
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->count, 8u);
  EXPECT_DOUBLE_EQ(ar->seconds, 0.0);
  session.clear();
}

}  // namespace
}  // namespace rcf
