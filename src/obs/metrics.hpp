// Metrics registry: named monotonic counters, gauges, and log-spaced
// latency histograms, exported as one JSON document.
//
// The registry subsumes the per-communicator CommStats counters (the comm
// backends publish their totals here when tracing is enabled; see
// dist::publish_comm_stats) and extends them with latency distributions
// the flat counters cannot express (allreduce latency and wait percentiles,
// for validating the alpha term of the cost model and exposing rank skew).
//
// Thread safety: counter/gauge updates and histogram observations are
// atomic; name lookup takes a registry mutex (cache the returned reference
// in hot paths).  Returned references stay valid for the process lifetime
// -- reset() zeroes values but never destroys instruments.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rcf::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bin histogram over non-negative values (microsecond latencies):
/// bin i counts observations in [2^(i-1), 2^i), bin 0 counts [0, 1).
/// Percentiles are reported as the upper edge of the bin containing the
/// requested rank, which makes them monotone in p by construction.
class Histogram {
 public:
  static constexpr int kNumBins = 64;

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }
  /// Smallest observed value; 0 when empty.
  [[nodiscard]] double min() const;
  /// Upper edge of the bin holding the p-quantile (p in [0, 1]); 0 when
  /// empty.
  [[nodiscard]] double percentile(double p) const;

  /// Observation count of bin `i` (0 <= i < kNumBins); used by the
  /// cross-rank aggregation to merge distributions exactly.
  [[nodiscard]] std::uint64_t bin_count(int i) const {
    return bins_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }

  /// Upper edge of bin `i`: 1 for bin 0 ([0, 1)), else 2^i.  Exported with
  /// the bucket counts so offline tools can re-aggregate exactly.
  [[nodiscard]] static double bin_edge(int i);

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumBins> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
  /// +inf sentinel when empty; min() maps that back to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of one histogram (bucket layout identical to
/// Histogram: bin i counts [2^(i-1), 2^i), bin 0 counts [0, 1); the edges
/// are a static property, so they are stable across every snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, Histogram::kNumBins> bins{};
};

/// Point-in-time copy of a registry, for delta computation by the live
/// monitor.  Each instrument is read with one relaxed load per field, so a
/// snapshot taken under concurrent writers is per-field consistent:
/// counters and histogram bucket counts are monotone from one snapshot to
/// the next (writers only add), though count/sum/bins of one histogram may
/// mutually disagree by in-flight observations.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// cur - prev, elementwise.  If an instrument was reset() between the
/// snapshots (cur < prev) the delta is the current value -- everything
/// counted since the reset -- never an underflowed difference;
/// instruments that are new in `cur` contribute their full value.  Gauges carry the current
/// value (last-write-wins has no meaningful delta); histogram min/max are
/// the current values for the same reason.
[[nodiscard]] MetricsSnapshot delta_snapshot(const MetricsSnapshot& prev,
                                             const MetricsSnapshot& cur);

/// Name -> instrument map.  Instruments are created on first touch and
/// live for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point-in-time copy of every instrument (see MetricsSnapshot).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Registered instrument names in sorted (map) order -- the fixed
  /// enumeration order the cross-rank aggregation packs buffers in.
  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> gauge_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  /// JSON document: {"counters":{...},"gauges":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

  /// Zeroes every instrument (references handed out stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rcf::obs
