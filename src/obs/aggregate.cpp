#include "obs/aggregate.hpp"

#include <cstdint>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "common/table.hpp"
#include "dist/comm.hpp"
#include "obs/trace.hpp"

namespace rcf::obs {

namespace {

// FNV-1a 64-bit over the registry's instrument-name layout.  Ranks must
// agree on this hash before any value buffer is exchanged -- otherwise
// the fixed-order packing would silently misalign values across ranks.
std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t layout_hash(const std::vector<std::string>& counters,
                          const std::vector<std::string>& gauges) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& n : counters) {
    h = fnv1a(h, n);
    h = fnv1a(h, "\x01");
  }
  h = fnv1a(h, "\x02");
  for (const auto& n : gauges) {
    h = fnv1a(h, n);
    h = fnv1a(h, "\x01");
  }
  return h;
}

// All ranks must hold the same value; checked via max of the value and its
// negation (max == -max(-x) iff every rank agrees).  Values are uint32
// halves, exactly representable as doubles.
void check_agreement(dist::Communicator& comm, std::uint64_t hash) {
  const auto lo = static_cast<double>(hash & 0xffffffffULL);
  const auto hi = static_cast<double>(hash >> 32);
  double probe[4] = {lo, hi, -lo, -hi};
  comm.allreduce_max({probe, 4});
  RCF_CHECK_MSG(probe[0] == -probe[2] && probe[1] == -probe[3],
                "obs::aggregate: ranks disagree on registry instrument "
                "names; every rank must record the same metric set");
}

std::vector<AggregatedMetric> reduce_values(
    dist::Communicator& comm, const std::vector<std::string>& names,
    const std::vector<double>& values, int ranks) {
  const std::size_t n = names.size();
  std::vector<double> sums(values);
  if (!sums.empty()) {
    comm.allreduce_sum({sums.data(), sums.size()});
  }
  // One max-allreduce finds both max (first half) and min (negated second
  // half).
  std::vector<double> extremes(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    extremes[i] = values[i];
    extremes[n + i] = -values[i];
  }
  if (!extremes.empty()) {
    comm.allreduce_max({extremes.data(), extremes.size()});
  }
  std::vector<AggregatedMetric> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    AggregatedMetric& m = out[i];
    m.name = names[i];
    m.sum = sums[i];
    m.max = extremes[i];
    m.min = -extremes[n + i];
    m.mean = m.sum / static_cast<double>(ranks);
    m.imbalance = m.mean == 0.0 ? 1.0 : m.max / m.mean;
  }
  return out;
}

}  // namespace

const AggregatedMetric* FleetMetrics::find(std::string_view name) const {
  for (const auto& m : counters) {
    if (m.name == name) {
      return &m;
    }
  }
  for (const auto& m : gauges) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string FleetMetrics::table() const {
  AsciiTable tbl({"metric", "min", "mean", "max", "sum", "imbalance"});
  auto add = [&tbl](const AggregatedMetric& m) {
    tbl.add_row({m.name, fmt_g(m.min), fmt_g(m.mean), fmt_g(m.max),
                 fmt_g(m.sum), fmt_f(m.imbalance, 3)});
  };
  for (const auto& m : counters) {
    add(m);
  }
  for (const auto& m : gauges) {
    add(m);
  }
  std::ostringstream out;
  out << "cross-rank metrics (" << ranks << " ranks)\n" << tbl.str();
  return out.str();
}

FleetMetrics aggregate(MetricsRegistry& local, dist::Communicator& comm) {
  // Everything below runs as auxiliary communication: no CommStats and no
  // "allreduce" spans (the instruments being aggregated must not observe
  // the aggregation itself).
  dist::Communicator::AuxScope aux(comm);

  const std::vector<std::string> counter_names = local.counter_names();
  const std::vector<std::string> gauge_names = local.gauge_names();
  check_agreement(comm, layout_hash(counter_names, gauge_names));

  FleetMetrics fleet;
  fleet.ranks = comm.size();

  // Counters and gauges: pack in sorted-name order (counter_names() et al.
  // iterate the registry map), reduce, unpack.  The order is a function of
  // the names only, so the reduction is deterministic for any pool width.
  std::vector<double> values(counter_names.size());
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    values[i] = static_cast<double>(local.counter(counter_names[i]).value());
  }
  fleet.counters = reduce_values(comm, counter_names, values, fleet.ranks);

  values.resize(gauge_names.size());
  for (std::size_t i = 0; i < gauge_names.size(); ++i) {
    values[i] = local.gauge(gauge_names[i]).value();
  }
  fleet.gauges = reduce_values(comm, gauge_names, values, fleet.ranks);
  return fleet;
}

void publish(const FleetMetrics& fleet, MetricsRegistry& registry) {
  auto put = [&registry](const std::string& name, double v) {
    registry.gauge(name).set(v);
  };
  for (const auto& m : fleet.counters) {
    const std::string base = "agg." + m.name + ".";
    put(base + "min", m.min);
    put(base + "max", m.max);
    put(base + "sum", m.sum);
    put(base + "mean", m.mean);
    put(base + "imbalance", m.imbalance);
  }
  for (const auto& m : fleet.gauges) {
    const std::string base = "agg." + m.name + ".";
    put(base + "min", m.min);
    put(base + "max", m.max);
    put(base + "sum", m.sum);
    put(base + "mean", m.mean);
    put(base + "imbalance", m.imbalance);
  }
}

void record_solve_metrics(MetricsRegistry& registry,
                          const std::vector<PhaseStat>& phases,
                          const dist::CommStats* comm_stats) {
  for (const auto& stat : phases) {
    const std::string base = "phase." + stat.name + ".";
    registry.counter(base + "count").add(stat.count);
    registry.gauge(base + "seconds").set(stat.seconds);
    registry.gauge(base + "words").set(stat.payload_words);
  }
  if (comm_stats != nullptr) {
    const dist::CommStats& s = *comm_stats;
    registry.counter("comm.allreduce_calls").add(s.allreduce_calls);
    registry.counter("comm.allreduce_max_calls").add(s.allreduce_max_calls);
    registry.counter("comm.allreduce_words").add(s.allreduce_words);
    registry.counter("comm.retries").add(s.retries);
    registry.counter("comm.faults_injected").add(s.faults_injected);
    registry.gauge("comm.max_payload_words")
        .set(static_cast<double>(s.max_payload_words));
  }
}

}  // namespace rcf::obs
