// Cross-rank metric aggregation (obs::aggregate): exactness, determinism,
// imbalance semantics, and the end-to-end wiring through the threaded SPMD
// solver.  The determinism contract under test is the one documented in
// obs/aggregate.hpp: reduction order is a function of the instrument names
// only, so aggregated schedule-shape metrics are bit-identical across
// repeated runs.
#include <gtest/gtest.h>

#include <vector>

#include "rcf.hpp"

namespace {

using namespace rcf;

// Fills one rank's registry with dyadic-rational values (exact under any
// summation order) keyed off the rank id.
void fill_registry(obs::MetricsRegistry& reg, int rank) {
  reg.counter("phase.gram.count").add(static_cast<std::uint64_t>(3 * (rank + 1)));
  reg.counter("comm.allreduce_calls").add(10);
  reg.gauge("phase.gram.seconds").set(0.25 * static_cast<double>(rank + 1));
  reg.gauge("phase.allreduce.words").set(4096.0);
}

bool same_metric(const obs::AggregatedMetric& a,
                 const obs::AggregatedMetric& b) {
  return a.name == b.name && a.min == b.min && a.max == b.max &&
         a.sum == b.sum && a.mean == b.mean && a.imbalance == b.imbalance;
}

bool same_fleet(const obs::FleetMetrics& a, const obs::FleetMetrics& b) {
  if (a.ranks != b.ranks || a.counters.size() != b.counters.size() ||
      a.gauges.size() != b.gauges.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    if (!same_metric(a.counters[i], b.counters[i])) return false;
  }
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    if (!same_metric(a.gauges[i], b.gauges[i])) return false;
  }
  return true;
}

// Runs a 4-rank aggregation of fill_registry registries and returns every
// rank's view.
std::vector<obs::FleetMetrics> aggregate_fleet(int ranks) {
  std::vector<obs::FleetMetrics> views(static_cast<std::size_t>(ranks));
  dist::ThreadGroup group(ranks);
  group.run([&](dist::ThreadComm& comm) {
    obs::MetricsRegistry local;
    fill_registry(local, comm.rank());
    views[static_cast<std::size_t>(comm.rank())] =
        obs::aggregate(local, comm);
  });
  return views;
}

TEST(ObsAggregate, SeqCommSingleRankIsIdentity) {
  obs::MetricsRegistry local;
  fill_registry(local, 0);
  dist::SeqComm comm;
  const auto fleet = obs::aggregate(local, comm);

  EXPECT_EQ(fleet.ranks, 1);
  const auto* gram = fleet.find("phase.gram.count");
  ASSERT_NE(gram, nullptr);
  EXPECT_EQ(gram->min, 3.0);
  EXPECT_EQ(gram->max, 3.0);
  EXPECT_EQ(gram->sum, 3.0);
  EXPECT_EQ(gram->mean, 3.0);
  EXPECT_EQ(gram->imbalance, 1.0);
}

TEST(ObsAggregate, SumsEqualPerRankSumsBitExactly) {
  constexpr int kRanks = 4;
  const auto views = aggregate_fleet(kRanks);

  // Expected sums computed directly from fill_registry's per-rank values;
  // all inputs are dyadic rationals so every reduction order is exact.
  double count_sum = 0.0, seconds_sum = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    count_sum += 3.0 * (r + 1);
    seconds_sum += 0.25 * (r + 1);
  }

  const auto& fleet = views[0];
  EXPECT_EQ(fleet.ranks, kRanks);
  const auto* count = fleet.find("phase.gram.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->sum, count_sum);
  EXPECT_EQ(count->min, 3.0);
  EXPECT_EQ(count->max, 12.0);
  EXPECT_EQ(count->mean, count_sum / kRanks);

  const auto* seconds = fleet.find("phase.gram.seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->sum, seconds_sum);

  // Every rank must hold the identical fleet view (allreduce semantics).
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_TRUE(same_fleet(views[0], views[static_cast<std::size_t>(r)]))
        << "rank " << r << " view diverged";
  }
}

TEST(ObsAggregate, ImbalanceGaugesAtLeastOne) {
  const auto views = aggregate_fleet(4);
  const auto check = [](const std::vector<obs::AggregatedMetric>& ms) {
    for (const auto& m : ms) {
      EXPECT_GE(m.imbalance, 1.0) << m.name;
    }
  };
  check(views[0].counters);
  check(views[0].gauges);

  // The rank-skewed gram counter: max 12 over mean 7.5.
  const auto* count = views[0].find("phase.gram.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->imbalance, 12.0 / 7.5);
  // The rank-uniform payload gauge is perfectly balanced.
  const auto* words = views[0].find("phase.allreduce.words");
  ASSERT_NE(words, nullptr);
  EXPECT_EQ(words->imbalance, 1.0);
}

TEST(ObsAggregate, DeterministicAcrossRepeatedRuns) {
  const auto first = aggregate_fleet(4);
  const auto second = aggregate_fleet(4);
  EXPECT_TRUE(same_fleet(first[0], second[0]));
}

TEST(ObsAggregate, PublishRoundTripsThroughMetricsJson) {
  obs::MetricsRegistry local;
  fill_registry(local, 2);
  dist::SeqComm comm;
  const auto fleet = obs::aggregate(local, comm);

  obs::MetricsRegistry out;
  obs::publish(fleet, out);
  EXPECT_EQ(out.gauge("agg.phase.gram.count.sum").value(), 9.0);
  EXPECT_EQ(out.gauge("agg.phase.gram.count.imbalance").value(), 1.0);

  // The JSON export of the published registry must parse (dogfoods the
  // shared escaping helper on the dotted agg.* names).
  const auto doc = parse_json(out.to_json());
  ASSERT_TRUE(doc.has_value() && doc->is_object());
  const auto* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const auto* sum = gauges->find("agg.phase.gram.count.sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->number, 9.0);
}

TEST(ObsAggregate, JsonEscapingSurvivesHostileNames) {
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

TEST(ObsAggregate, DistributedSolvePopulatesFleet) {
  const auto dataset = data::make_paper_clone("covtype", 0.005);
  const core::LassoProblem problem(dataset, 0.001);
  core::SolverOptions opts;
  opts.max_iters = 24;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.track_history = false;

  auto& session = obs::TraceSession::global();
  session.start();
  dist::ThreadGroup group(4);
  const auto run = core::solve_rc_sfista_distributed(problem, opts, group);
  session.stop();
  session.clear();

  ASSERT_FALSE(run.fleet.empty());
  EXPECT_EQ(run.fleet.ranks, 4);
  // Every rank performs the same blocked schedule: ceil(24/4) = 6 rounds.
  const auto* rounds = run.fleet.find("phase.allreduce.count");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->min, 6.0);
  EXPECT_EQ(rounds->max, 6.0);
  EXPECT_EQ(rounds->sum, 24.0);
  EXPECT_EQ(rounds->imbalance, 1.0);
  // The aggregated per-rank call counters must reproduce the group's
  // summed CommStats exactly (the aggregation itself runs under AuxScope,
  // so it never perturbs the counters it is reporting on).
  const auto* calls = run.fleet.find("comm.allreduce_calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->sum, static_cast<double>(run.comm_stats.allreduce_calls));
  for (const auto& m : run.fleet.counters) {
    EXPECT_GE(m.imbalance, 1.0) << m.name;
  }
  // Convergence telemetry rides along on the distributed path too.
  EXPECT_EQ(run.conv.size(), 24u);
}

TEST(ObsAggregate, DistributedScheduleShapeDeterministic) {
  // Schedule-shape metrics (span counts, payload words, comm call counts)
  // must be bit-identical across repeated traced runs; time-valued metrics
  // carry jitter and are exempt.
  const auto dataset = data::make_paper_clone("covtype", 0.005);
  const core::LassoProblem problem(dataset, 0.001);
  core::SolverOptions opts;
  opts.max_iters = 16;
  opts.sampling_rate = 0.2;
  opts.k = 2;
  opts.track_history = false;

  const auto run_once = [&]() {
    auto& session = obs::TraceSession::global();
    session.start();
    dist::ThreadGroup group(4);
    auto run = core::solve_rc_sfista_distributed(problem, opts, group);
    session.stop();
    session.clear();
    return run;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_FALSE(a.fleet.empty());
  ASSERT_EQ(a.fleet.counters.size(), b.fleet.counters.size());
  for (std::size_t i = 0; i < a.fleet.counters.size(); ++i) {
    EXPECT_TRUE(same_metric(a.fleet.counters[i], b.fleet.counters[i]))
        << a.fleet.counters[i].name;
  }
  const auto* words_a = a.fleet.find("phase.allreduce.words");
  const auto* words_b = b.fleet.find("phase.allreduce.words");
  ASSERT_NE(words_a, nullptr);
  ASSERT_NE(words_b, nullptr);
  EXPECT_EQ(words_a->sum, words_b->sum);
}

}  // namespace
