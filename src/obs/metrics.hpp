// Metrics registry: named monotonic counters and gauges, exported as one
// JSON document.
//
// The registry subsumes the per-communicator CommStats counters (the comm
// backends publish their totals here when tracing is enabled; see
// dist::publish_comm_stats).  Latency distributions are not kept here:
// every timed collective is a trace span with its exact duration, and
// rcf-report computes the per-span-name quantiles from the trace.
//
// Thread safety: counter/gauge updates are atomic; name lookup takes a
// registry mutex (cache the returned reference in hot paths).  Returned
// references stay valid for the process lifetime -- reset() zeroes values
// but never destroys instruments.
#pragma once

#include <atomic>
#include <cstdint>
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

/// Point-in-time copy of a registry, for delta computation by the live
/// monitor.  Each instrument is read with one relaxed load per field, so a
/// snapshot taken under concurrent writers is per-field consistent:
/// counters are monotone from one snapshot to the next (writers only add).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
};

/// cur - prev, elementwise.  If an instrument was reset() between the
/// snapshots (cur < prev) the delta is the current value -- everything
/// counted since the reset -- never an underflowed difference;
/// instruments that are new in `cur` contribute their full value.  Gauges
/// carry the current value (last-write-wins has no meaningful delta).
[[nodiscard]] MetricsSnapshot delta_snapshot(const MetricsSnapshot& prev,
                                             const MetricsSnapshot& cur);

/// Name -> instrument map.  Instruments are created on first touch and
/// live for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Point-in-time copy of every instrument (see MetricsSnapshot).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Registered counter names in sorted (map) order.
  [[nodiscard]] std::vector<std::string> counter_names() const;

  /// JSON document: {"counters":{...},"gauges":{...}}.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

  /// Zeroes every instrument (references handed out stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace rcf::obs
