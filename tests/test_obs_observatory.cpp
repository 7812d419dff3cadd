// Tests for the performance-observatory layer: cross-rank timeline merge,
// critical-path extraction with straggler attribution, hardware-counter
// sampling (including the no-perf fallback), cost-model validation gauges,
// %r trace-path splitting, and the rcf-report malformed-input contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "fault/plan.hpp"
#include "model/cost.hpp"
#include "model/formulas.hpp"
#include "model/machine.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/perfctr.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "report.hpp"

namespace rcf {
namespace {

// ---------------------------------------------------------------------------
// Timeline merge: hand-built two-rank trace.
//
//   rank 0: [0,1000) gram.task | [1000,1400) allreduce seq=0
//             with nested allreduce_wait [1000,1300)    (waited 300us)
//   rank 1: [0,1200) gram.task | [1200,1400) allreduce seq=0
//             with nested allreduce_wait [1200,1300)    (waited 100us)
//
// Rank 1 arrives last (straggler); it imposed 300-100 = 200us of idle.
// ---------------------------------------------------------------------------

std::vector<obs::TimelineSpan> synthetic_spans() {
  return {
      {"gram.task", 0, -1, 0, 1000, 0.0},
      {"allreduce", 0, 0, 1000, 400, 144.0},
      {"allreduce_wait", 0, 0, 1000, 300, 0.0},
      {"gram.task", 1, -1, 0, 1200, 0.0},
      {"allreduce", 1, 0, 1200, 200, 144.0},
      {"allreduce_wait", 1, 0, 1200, 100, 0.0},
  };
}

TEST(ObsTimeline, ClassifiesSpanNames) {
  EXPECT_EQ(obs::classify_span("gram.task"), obs::SpanCategory::kCompute);
  EXPECT_EQ(obs::classify_span("allreduce"), obs::SpanCategory::kComm);
  EXPECT_EQ(obs::classify_span("allreduce_wait"), obs::SpanCategory::kWait);
  EXPECT_EQ(obs::classify_span("reduce_wait"), obs::SpanCategory::kWait);
  EXPECT_EQ(obs::classify_span("aux_collective"), obs::SpanCategory::kAux);
  EXPECT_EQ(obs::classify_span("aux_wait"), obs::SpanCategory::kAux);
  EXPECT_TRUE(obs::is_aligned_collective("allreduce"));
  EXPECT_FALSE(obs::is_aligned_collective("allreduce_wait"));
  EXPECT_FALSE(obs::is_aligned_collective("aux_collective"));
}

TEST(ObsTimeline, MergesSyntheticTwoRankTrace) {
  const auto timeline = obs::Timeline::build(synthetic_spans());
  ASSERT_FALSE(timeline.empty());
  ASSERT_EQ(timeline.ranks().size(), 2u);
  EXPECT_EQ(timeline.start_us(), 0);
  EXPECT_EQ(timeline.end_us(), 1400);

  const auto& rt = timeline.rank_times();
  ASSERT_EQ(rt.size(), 2u);
  // Rank 0: 1000us compute, 400us collective of which 300us nested wait.
  EXPECT_NEAR(rt[0].compute_s, 1000e-6, 1e-12);
  EXPECT_NEAR(rt[0].comm_s, 100e-6, 1e-12);
  EXPECT_NEAR(rt[0].wait_s, 300e-6, 1e-12);
  EXPECT_NEAR(rt[0].aux_s, 0.0, 1e-12);
  // Rank 1: 1200us compute, 200us collective of which 100us nested wait.
  EXPECT_NEAR(rt[1].compute_s, 1200e-6, 1e-12);
  EXPECT_NEAR(rt[1].comm_s, 100e-6, 1e-12);
  EXPECT_NEAR(rt[1].wait_s, 100e-6, 1e-12);

  ASSERT_EQ(timeline.collectives().size(), 1u);
  const auto& c = timeline.collectives()[0];
  EXPECT_EQ(c.name, "allreduce");
  EXPECT_EQ(c.seq, 0);
  EXPECT_EQ(c.straggler_rank, 1);
  EXPECT_EQ(c.last_arrival_us, 1200);
  EXPECT_EQ(c.wait_imposed_us, 200);
  EXPECT_EQ(c.wait_total_us, 400);
  EXPECT_NEAR(c.words, 144.0, 1e-12);
  ASSERT_EQ(c.ranks.size(), 2u);
  EXPECT_TRUE(c.ranks[0].present);
  EXPECT_TRUE(c.ranks[1].present);
  EXPECT_EQ(c.ranks[0].wait_us, 300);
  EXPECT_EQ(c.ranks[1].wait_us, 100);
}

// Under the contract checker the board's publish rendezvous comes first:
//
//   rank 0: [0,1000) gram.task | [1000,1400) allreduce seq=0
//             with contract_wait [1000,1300), allreduce_wait [1312,1330)
//   rank 1: [0,1300) gram.task | [1300,1400) allreduce seq=0
//             with contract_wait [1300,1301), allreduce_wait [1310,1330)
//
// The board releases both ranks together, so the allreduce_waits start at
// about the same time and rank 0's happens to start last.  The arrival is
// the earliest stamped wait: rank 1 arrived last and imposed the idle.
TEST(ObsTimeline, ArrivalIsEarliestStampedWait) {
  const auto timeline = obs::Timeline::build({
      {"gram.task", 0, -1, 0, 1000, 0.0},
      {"allreduce", 0, 0, 1000, 400, 144.0},
      {"contract_wait", 0, 0, 1000, 300, 0.0},
      {"allreduce_wait", 0, 0, 1312, 18, 0.0},
      {"gram.task", 1, -1, 0, 1300, 0.0},
      {"allreduce", 1, 0, 1300, 100, 144.0},
      {"contract_wait", 1, 0, 1300, 1, 0.0},
      {"allreduce_wait", 1, 0, 1310, 20, 0.0},
  });
  EXPECT_EQ(obs::classify_span("contract_wait"), obs::SpanCategory::kWait);
  ASSERT_EQ(timeline.collectives().size(), 1u);
  const auto& c = timeline.collectives()[0];
  EXPECT_EQ(c.straggler_rank, 1);
  EXPECT_EQ(c.last_arrival_us, 1300);
  ASSERT_EQ(c.ranks.size(), 2u);
  EXPECT_EQ(c.ranks[0].arrival_us, 1000);
  EXPECT_EQ(c.ranks[1].arrival_us, 1300);
  EXPECT_EQ(c.ranks[0].wait_us, 318);
  EXPECT_EQ(c.ranks[1].wait_us, 21);
  EXPECT_EQ(c.wait_imposed_us, 297);

  // Both waits nest inside the allreduce span: 400us = 82 comm + 318 wait.
  const auto& rt = timeline.rank_times();
  ASSERT_EQ(rt.size(), 2u);
  EXPECT_NEAR(rt[0].comm_s, 82e-6, 1e-12);
  EXPECT_NEAR(rt[0].wait_s, 318e-6, 1e-12);
  EXPECT_NEAR(rt[0].compute_s, 1000e-6, 1e-12);

  const auto path = obs::critical_path(timeline);
  ASSERT_FALSE(path.top_stragglers.empty());
  EXPECT_EQ(path.top_stragglers[0].rank, 1);
}

// The contract checker's wrapper spans hold time already counted through
// other spans:
//
//   [0,100)   allreduce seq=0
//   [0,40)      check.contract          (the board's verify)
//   [0,30)        contract_wait seq=0   (its publish rendezvous)
//   [40,70)     allreduce_wait seq=0
//   [100,130) check.epoch               (after the collective returns)
//   [105,125)   aux_collective          (the epoch's hash exchange)
//
// Neither wrapper may add to any category: the parts must fit the 130us
// window instead of reading 190us.
TEST(ObsTimeline, CheckerSpansAreNotCountedTwice) {
  const auto timeline = obs::Timeline::build({
      {"allreduce", 0, 0, 0, 100, 8.0},
      {"check.contract", 0, -1, 0, 40, 0.0},
      {"contract_wait", 0, 0, 0, 30, 0.0},
      {"allreduce_wait", 0, 0, 40, 30, 0.0},
      {"check.epoch", 0, -1, 100, 30, 0.0},
      {"aux_collective", 0, -1, 105, 20, 2.0},
  });
  ASSERT_EQ(timeline.rank_times().size(), 1u);
  const auto& rt = timeline.rank_times()[0];
  EXPECT_NEAR(rt.comm_s, 40e-6, 1e-12);
  EXPECT_NEAR(rt.wait_s, 60e-6, 1e-12);
  EXPECT_NEAR(rt.aux_s, 20e-6, 1e-12);
  EXPECT_NEAR(rt.compute_s, 0.0, 1e-12);
  EXPECT_NEAR(rt.total_s(), 120e-6, 1e-12);
  EXPECT_LE(rt.total_s(), static_cast<double>(rt.last_us - rt.first_us) * 1e-6);
}

TEST(ObsTimeline, OrdinalFallbackAlignsUnstampedSpans) {
  // Two collectives per rank, no sequence numbers: alignment must fall
  // back to per-rank arrival order and still pair them up.
  std::vector<obs::TimelineSpan> spans = {
      {"allreduce", 0, -1, 0, 100, 8.0},
      {"allreduce", 0, -1, 500, 100, 8.0},
      {"allreduce", 1, -1, 10, 100, 8.0},
      {"allreduce", 1, -1, 510, 100, 8.0},
  };
  const auto timeline = obs::Timeline::build(std::move(spans));
  ASSERT_EQ(timeline.collectives().size(), 2u);
  for (const auto& c : timeline.collectives()) {
    EXPECT_EQ(c.name, "allreduce");
    ASSERT_EQ(c.ranks.size(), 2u);
    EXPECT_TRUE(c.ranks[0].present);
    EXPECT_TRUE(c.ranks[1].present);
    // Rank 1 starts 10us later in both instances.
    EXPECT_EQ(c.straggler_rank, 1);
  }
}

// ---------------------------------------------------------------------------
// Critical path on the synthetic timeline: exact segment arithmetic.
// ---------------------------------------------------------------------------

TEST(ObsCritpath, SyntheticPathChargesStragglerComputeAndCollective) {
  const auto timeline = obs::Timeline::build(synthetic_spans());
  const auto path = obs::critical_path(timeline);
  ASSERT_FALSE(path.segments.empty());

  const auto& seg = path.segments[0];
  EXPECT_EQ(seg.name, "allreduce");
  EXPECT_EQ(seg.seq, 0);
  EXPECT_EQ(seg.critical_rank, 1);
  // Straggler (rank 1) computed 1200us before arriving; the collective
  // then took max-end (1400) - arrival (1200) = 200us.
  EXPECT_NEAR(seg.compute_s, 1200e-6, 1e-12);
  EXPECT_NEAR(seg.collective_s, 200e-6, 1e-12);
  EXPECT_NEAR(seg.wait_imposed_s, 200e-6, 1e-12);

  // The chain explains the whole 1400us makespan: coverage = 1.
  EXPECT_NEAR(path.makespan_s, 1400e-6, 1e-12);
  EXPECT_NEAR(path.compute_s + path.comm_s, 1400e-6, 1e-12);
  EXPECT_NEAR(path.coverage, 1.0, 1e-9);

  ASSERT_FALSE(path.top_stragglers.empty());
  EXPECT_EQ(path.top_stragglers[0].rank, 1);
  EXPECT_NEAR(path.top_stragglers[0].wait_imposed_s, 200e-6, 1e-12);

  // The text renderers consume the same struct; smoke them.
  EXPECT_NE(obs::critpath_table(path).find("allreduce"), std::string::npos);
  EXPECT_NE(obs::straggler_table(path).find("allreduce"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Critical path on a real 4-rank solve with a fault-seeded straggler.
// ---------------------------------------------------------------------------

core::LassoProblem small_problem(data::Dataset& storage) {
  data::SyntheticOptions opts;
  opts.num_samples = 300;
  opts.num_features = 12;
  opts.density = 0.5;
  opts.seed = 5;
  storage = data::make_regression(opts);
  return core::LassoProblem(storage, 0.01);
}

core::SolverOptions small_options() {
  core::SolverOptions opts;
  opts.max_iters = 12;
  opts.sampling_rate = 0.3;
  opts.k = 2;
  opts.s = 2;
  opts.track_history = false;
  opts.retry.backoff_us = 1;
  return opts;
}

TEST(ObsCritpath, AttributesFaultSeededStraggler) {
  data::Dataset storage;
  const auto problem = small_problem(storage);

  // Delay rank 1 by 3ms before every engine collective: it must show up
  // as the dominant straggler in the merged timeline.
  fault::ScopedFaultPlan scoped{std::string_view("delay:rank=1,us=3000,every=1")};

  auto& session = obs::TraceSession::global();
  session.start();
  {
    dist::ThreadGroup group(4);
    const auto result =
        core::solve_rc_sfista_distributed(problem, small_options(), group);
    EXPECT_GT(result.iterations, 0u);
  }
  const auto events = session.snapshot();
  session.stop();
  session.clear();
  ASSERT_FALSE(events.empty());

  const auto timeline = obs::Timeline::build(obs::to_timeline_spans(events));
  ASSERT_EQ(timeline.ranks().size(), 4u);
  ASSERT_FALSE(timeline.collectives().size() == 0u);

  // Every aligned collective must carry a sequence number: the comm
  // backend stamps them, so an unstamped one means the contract broke.
  std::size_t rank1_stragglers = 0;
  for (const auto& c : timeline.collectives()) {
    EXPECT_GE(c.seq, 0) << c.name;
    if (c.straggler_rank == 1) {
      ++rank1_stragglers;
    }
  }
  // The injected 3ms dwarfs scheduler noise; rank 1 must lose the race to
  // the rendezvous in the (strict) majority of collectives.
  EXPECT_GT(rank1_stragglers * 2, timeline.collectives().size());

  const auto path = obs::critical_path(timeline);
  ASSERT_FALSE(path.segments.empty());
  ASSERT_FALSE(path.top_stragglers.empty());
  EXPECT_EQ(path.top_stragglers[0].rank, 1);
  EXPECT_GT(path.coverage, 0.5);
  EXPECT_GT(path.makespan_s, 0.0);
}

// ---------------------------------------------------------------------------
// Hardware counters: both the live path and the no-perf fallback must be
// structured (no crash, explicit error, inert scopes).
// ---------------------------------------------------------------------------

TEST(ObsPerfctr, SamplerIsStructuredOnBothPaths) {
  obs::PerfCounters counters;
  if (counters.available()) {
    counters.start();
    double acc = 0.0;
    for (int i = 0; i < 10000; ++i) {
      acc += static_cast<double>(i) * 1.0000001;
    }
    const auto sample = counters.stop();
    EXPECT_TRUE(sample.valid);
    EXPECT_GT(sample.cycles, 0u);
    EXPECT_GT(acc, 0.0);
  } else {
    // Fallback contract: a reason is recorded, start/stop are no-ops, and
    // the sample is explicitly invalid.
    EXPECT_FALSE(counters.error().empty());
    counters.start();
    const auto sample = counters.stop();
    EXPECT_FALSE(sample.valid);
    EXPECT_EQ(sample.cycles, 0u);
  }
}

TEST(ObsPerfctr, ScopePublishesCountersOrUnavailableMarker) {
  auto& registry = obs::MetricsRegistry::global();
  const bool was_enabled = obs::perf_scopes_enabled();
  obs::set_perf_scopes_enabled(true);
  {
    obs::PerfScope scope("obs_test_kernel");
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
      acc += static_cast<double>(i);
    }
    EXPECT_GT(acc, 0.0);
  }
  obs::set_perf_scopes_enabled(was_enabled);

  const auto samples =
      registry.counter("perf.obs_test_kernel.samples").value();
  if (obs::PerfCounters::supported()) {
    EXPECT_GE(samples, 1u);
  } else {
    // Structured no-op: no half-written sample, and the unavailable
    // marker is materialized (at 0) so reports can tell "off" from
    // "degraded".
    EXPECT_EQ(samples, 0u);
    const auto names = registry.counter_names();
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "perf.unavailable.obs_test_kernel"),
              names.end());
  }
}

// ---------------------------------------------------------------------------
// Cost-model validation: hand-computed Table 1 totals must round-trip
// through CostLedger into the model.* gauges exactly.
// ---------------------------------------------------------------------------

TEST(ObsCostLedger, HandComputedTotalsMatchExportedGauges) {
  // N=8, d=4, mbar=10, f=0.5, P=4 (log2 P = 2), k=2, S=2:
  //   L = (N/k) log2 P           = 4 * 2            = 8
  //   W = N d^2 log2 P           = 8 * 16 * 2       = 256
  //   F = N d^2 mbar f / P + S d^2 = 160 + 32       = 192
  model::AlgorithmShape shape;
  shape.n_iters = 8;
  shape.d = 4;
  shape.m_bar = 10;
  shape.fill = 0.5;
  shape.p = 4;
  shape.k = 2;
  shape.s = 2;

  const auto triple = model::rcsfista_cost(shape);
  EXPECT_DOUBLE_EQ(triple.latency_msgs, 8.0);
  EXPECT_DOUBLE_EQ(triple.bandwidth_words, 256.0);
  EXPECT_DOUBLE_EQ(triple.flops, 192.0);

  const auto spec = model::machine_by_name("comet");
  obs::CostLedger ledger(spec);

  // Count exactly what the closed form predicts, so every residual is 0.
  model::CostTracker measured;
  measured.add_flops(model::Phase::kGram, 192.0);
  measured.add_comm(8.0, 256.0);
  ledger.add("ksweep.k2", shape, measured);

  ASSERT_EQ(ledger.rows().size(), 1u);
  const auto& row = ledger.rows()[0];
  EXPECT_EQ(row.label, "ksweep_k2");
  EXPECT_DOUBLE_EQ(row.pred_latency_msgs, 8.0);
  EXPECT_DOUBLE_EQ(row.pred_bw_words, 256.0);
  EXPECT_DOUBLE_EQ(row.pred_flops, 192.0);
  EXPECT_DOUBLE_EQ(row.pred_rounds, 4.0);  // ceil(N/k)
  // Eq. 7 runtime (charges the raw injection alpha) and the ledger's
  // alpha-beta communication part (which includes the rendezvous
  // alpha_sync, matching what a wall measurement would see).
  const double expected_seconds =
      spec.gamma * 192.0 + spec.alpha * 8.0 + spec.beta * 256.0;
  const double expected_comm =
      spec.alpha_effective() * 8.0 + spec.beta * 256.0;
  EXPECT_DOUBLE_EQ(row.pred_seconds, expected_seconds);
  EXPECT_DOUBLE_EQ(row.pred_comm_seconds, expected_comm);
  EXPECT_DOUBLE_EQ(row.latency_err, 0.0);
  EXPECT_DOUBLE_EQ(row.bw_err, 0.0);
  EXPECT_DOUBLE_EQ(row.flops_err, 0.0);
  // No traced phase summary was supplied, so comm seconds are modeled,
  // not wall-measured, and must be marked as such.
  EXPECT_FALSE(row.meas_comm_is_wall);
  EXPECT_DOUBLE_EQ(row.comm_err, 0.0);

  obs::MetricsRegistry registry;
  ledger.export_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("model.ksweep_k2.latency.pred").value(),
                   8.0);
  EXPECT_DOUBLE_EQ(registry.gauge("model.ksweep_k2.latency.meas").value(),
                   8.0);
  EXPECT_DOUBLE_EQ(registry.gauge("model.ksweep_k2.bw.pred").value(), 256.0);
  EXPECT_DOUBLE_EQ(registry.gauge("model.ksweep_k2.flops.pred").value(),
                   192.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge("model.ksweep_k2.comm_seconds.pred").value(),
      expected_comm);
  EXPECT_DOUBLE_EQ(registry.gauge("model.ksweep_k2.latency_err").value(),
                   0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("model.residual.latency").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("model.residual.bw").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("model.residual.flops").value(), 0.0);

  // The table marks modeled (non-wall) comm seconds with '*'.
  EXPECT_NE(ledger.table().find("ksweep_k2"), std::string::npos);
}

TEST(ObsCostLedger, PipelinedRowCreditsOverlap) {
  model::AlgorithmShape shape;
  shape.n_iters = 8;
  shape.d = 4;
  shape.m_bar = 10;
  shape.fill = 0.5;
  shape.p = 4;
  shape.k = 2;
  shape.s = 2;
  const auto spec = model::machine_by_name("comet");
  obs::CostLedger ledger(spec);

  model::CostTracker measured;
  measured.add_flops(model::Phase::kGram, 192.0);
  measured.add_comm(8.0, 256.0);

  // A pipelined traced run reports the collective as a post/wait phase
  // pair instead of one "allreduce" phase.
  obs::PhaseSummary phases;
  obs::PhaseStat post;
  post.name = "allreduce_post";
  post.count = 4;
  post.seconds = 1e-5;
  obs::PhaseStat wait;
  wait.name = "allreduce_wait";
  wait.count = 4;
  wait.seconds = 4e-4;
  phases.push_back(post);
  phases.push_back(wait);

  obs::OverlapCredit overlap;
  overlap.predicted = 0.75;
  overlap.measured = 0.5;
  ledger.add("pipe.k2", shape, measured, &phases, &overlap);

  ASSERT_EQ(ledger.rows().size(), 1u);
  const auto& row = ledger.rows()[0];
  EXPECT_TRUE(row.pipelined);
  EXPECT_DOUBLE_EQ(row.pred_overlap, 0.75);
  EXPECT_DOUBLE_EQ(row.meas_overlap, 0.5);
  // Rounds come from the post count; comm wall is the exposed wait time
  // plus the (small) post time.
  EXPECT_DOUBLE_EQ(row.meas_rounds, 4.0);
  EXPECT_TRUE(row.meas_comm_is_wall);
  EXPECT_DOUBLE_EQ(row.meas_comm_seconds, 4.1e-4);
  // The predicted comm seconds keep only the exposed (1 - overlap) slice.
  const double full_comm =
      spec.alpha_effective() * 8.0 + spec.beta * 256.0;
  EXPECT_DOUBLE_EQ(row.pred_comm_seconds, 0.25 * full_comm);

  obs::MetricsRegistry registry;
  ledger.export_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("model.pipe_k2.overlap.pred").value(),
                   0.75);
  EXPECT_DOUBLE_EQ(registry.gauge("model.pipe_k2.overlap.meas").value(), 0.5);
  EXPECT_NE(ledger.table().find("0.75/0.50"), std::string::npos);
}

// ---------------------------------------------------------------------------
// %r trace-path splitting.
// ---------------------------------------------------------------------------

TEST(ObsTracePath, ExpandsRankPlaceholder) {
  EXPECT_EQ(obs::expand_rank_path("tr%r.json", 3), "tr3.json");
  EXPECT_EQ(obs::expand_rank_path("a/%r/b%r.json", 12), "a/12/b12.json");
  EXPECT_EQ(obs::expand_rank_path("plain.json", 3), "plain.json");
}

TEST(ObsTracePath, WritesOneFilePerRank) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rcf_obs_rankpath";
  fs::create_directories(dir);
  const std::string pattern = (dir / "tr%r.json").string();

  auto& session = obs::TraceSession::global();
  obs::TraceConfig config;
  config.trace_out = pattern;
  session.start(config);
  // Record one span per rank from this thread by switching the rank
  // attribution (the splitting keys on the event's rank, not the thread).
  obs::set_thread_rank(0);
  { RCF_TRACE_SCOPE("gram.task"); }
  obs::set_thread_rank(1);
  { RCF_TRACE_SCOPE("gram.task"); }
  obs::set_thread_rank(0);
  EXPECT_TRUE(session.write_outputs());
  session.stop();
  session.clear();

  EXPECT_TRUE(fs::exists(dir / "tr0.json"));
  EXPECT_TRUE(fs::exists(dir / "tr1.json"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// rcf-report: malformed metrics must fail loudly, and the analyzer must
// reconstruct the timeline sections from loaded events.
// ---------------------------------------------------------------------------

TEST(ObsReport, RejectsMalformedMetricsJson) {
  tools::Report report;
  std::string error;
  EXPECT_FALSE(tools::build_report({}, "this is not json", {}, report, error));
  EXPECT_FALSE(error.empty());
}

TEST(ObsReport, BuildsTimelineSectionsFromEvents) {
  // Twenty rank-0 spans after the collective, durations 10, 20, ..., 200 us
  // in scrambled order: nearest rank gives p50 = the 10th smallest (100),
  // p95 = the 19th (190), p99 = the 20th (200), max 200, mean 105.
  std::vector<obs::TimelineSpan> spans = synthetic_spans();
  std::int64_t t = 1400;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t dur = 10 * ((i * 7) % 20 + 1);
    spans.push_back({"sparse.spmv", 0, -1, t, dur, 0.0});
    t += dur;
  }
  std::vector<tools::ReportEvent> events;
  for (const auto& span : spans) {
    tools::ReportEvent ev;
    ev.name = span.name;
    ev.rank = span.rank;
    ev.ts_us = span.start_us;
    ev.dur_us = span.dur_us;
    ev.words = span.words;
    ev.seq = span.seq;
    events.push_back(ev);
  }
  tools::Report report;
  std::string error;
  ASSERT_TRUE(tools::build_report(events, "", {}, report, error)) << error;
  ASSERT_EQ(report.decomposition.size(), 2u);
  EXPECT_NEAR(report.decomposition[1].compute_s, 1200e-6, 1e-12);
  ASSERT_FALSE(report.critpath.segments.empty());
  EXPECT_EQ(report.critpath.segments[0].critical_rank, 1);
  ASSERT_FALSE(report.critpath.top_stragglers.empty());
  EXPECT_EQ(report.critpath.top_stragglers[0].rank, 1);

  const std::string text = tools::render_text(report);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  const std::string json = tools::render_json(report);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);

  const auto spmv = std::find_if(
      report.phases.begin(), report.phases.end(),
      [](const tools::PhaseRow& p) { return p.name == "sparse.spmv"; });
  ASSERT_NE(spmv, report.phases.end());
  EXPECT_EQ(spmv->count, 20u);
  EXPECT_EQ(spmv->mean_us, 105.0);
  EXPECT_EQ(spmv->p50_us, 100.0);
  EXPECT_EQ(spmv->p95_us, 190.0);
  EXPECT_EQ(spmv->p99_us, 200.0);
  EXPECT_EQ(spmv->max_us, 200.0);

  // Imbalance is the slowest rank's total over the mean rank's: gram.task
  // 1200 us vs 1000 us, allreduce 400 vs 200, allreduce_wait 300 vs 100;
  // sparse.spmv ran on rank 0 alone.
  const std::map<std::string, double> imbalance = {
      {"gram.task", 1200.0 / 1100.0},
      {"allreduce", 400.0 / 300.0},
      {"allreduce_wait", 300.0 / 200.0},
      {"sparse.spmv", 1.0}};
  ASSERT_EQ(report.phases.size(), imbalance.size());
  for (const auto& row : report.phases) {
    EXPECT_DOUBLE_EQ(row.imbalance, imbalance.at(row.name)) << row.name;
    EXPECT_DOUBLE_EQ(row.imbalance, row.critical_s / row.mean_rank_s)
        << row.name;
  }
  EXPECT_NE(text.find("imbalance"), std::string::npos);

  const auto doc = parse_json(json);
  ASSERT_TRUE(doc.has_value());
  // Latency and load balance live in the phase rows; the old side
  // channels are gone.
  EXPECT_EQ(doc->find("skew"), nullptr);
  EXPECT_EQ(doc->find("histograms"), nullptr);
  EXPECT_EQ(doc->find("aggregated"), nullptr);
  const JsonValue* phases = doc->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  const JsonValue* spmv_row = nullptr;
  for (const JsonValue& row : phases->array) {
    if (row.string_or("name", "") == "sparse.spmv") {
      spmv_row = &row;
    }
  }
  ASSERT_NE(spmv_row, nullptr);
  EXPECT_EQ(spmv_row->number_or("count", -1.0), 20.0);
  EXPECT_EQ(spmv_row->number_or("mean_us", -1.0), 105.0);
  EXPECT_EQ(spmv_row->number_or("p50_us", -1.0), 100.0);
  EXPECT_EQ(spmv_row->number_or("p95_us", -1.0), 190.0);
  EXPECT_EQ(spmv_row->number_or("p99_us", -1.0), 200.0);
  EXPECT_EQ(spmv_row->number_or("max_us", -1.0), 200.0);
  EXPECT_EQ(spmv_row->number_or("imbalance", -1.0), 1.0);
  for (const JsonValue& row : phases->array) {
    const std::string name = row.string_or("name", "");
    EXPECT_DOUBLE_EQ(row.number_or("imbalance", -1.0), imbalance.at(name))
        << name;
  }

  // The JSON "ranks" rows are the timeline's per-rank decomposition.
  const JsonValue* rows = doc->find("ranks");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  const auto timeline = obs::Timeline::build(spans);
  const auto& expected = timeline.rank_times();
  ASSERT_EQ(rows->array.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& row = rows->array[i];
    ASSERT_NE(row.find("wait_s"), nullptr) << i;
    EXPECT_EQ(row.number_or("rank", -1.0), expected[i].rank);
    EXPECT_NEAR(row.number_or("compute_s", -1.0), expected[i].compute_s, 1e-12);
    EXPECT_NEAR(row.number_or("comm_s", -1.0), expected[i].comm_s, 1e-12);
    EXPECT_NEAR(row.number_or("wait_s", -1.0), expected[i].wait_s, 1e-12);
    EXPECT_NEAR(row.number_or("aux_s", -1.0), expected[i].aux_s, 1e-12);
  }
}

}  // namespace
}  // namespace rcf
