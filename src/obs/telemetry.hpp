// Live telemetry bus: lock-free per-thread SPSC rings that the hot paths
// (engine phases, exec::Pool slices, every Communicator collective, the
// retry/fault decorators) publish fixed-size events into, drained by the
// obs::LiveMonitor sampler thread (live.hpp).
//
// Design constraints (see DESIGN.md "Live telemetry & health watchdog"):
//
//  * When live monitoring is off, telemetry_publish() costs exactly one
//    relaxed atomic load + branch (verified by BM_TelemetryPublishOff in
//    bench_kernels) -- the solvers stay instrumented unconditionally.
//  * Producers never block and never allocate: each thread owns one
//    single-producer / single-consumer ring; when it is full the event is
//    dropped and a drop counter incremented (the watchdog surfaces drops
//    as a ring-overflow alert, so saturation is observable, not silent).
//  * Events are fixed-size POD.  Labels are `const char*` to static
//    storage (string literals), exactly like TraceEvent::name, so no
//    ownership crosses the ring.
//
// The trace and live gates are packed into one atomic word (obs_gate) so
// TraceScope can test both with a single relaxed load -- enabling live
// telemetry did not add a second load to the disabled-span fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace rcf::obs {

/// What a telemetry event describes.  The (a, b, c) payload is
/// kind-specific:
///
///   kPhase            engine solver phase    a=dur_us  b=words
///   kSpan             completed TraceScope   a=dur_us  b=words
///   kCollectiveBegin  collective posted      a=seq     b=words
///   kCollectiveEnd    collective completed   a=seq     b=dur_us
///   kProgress         solver iteration       a=iter    b=objective c=step
///   kRetry            collective retried     a=retry#  b=backoff_us
///   kFault            injected fault fired   a=call#
enum class TelemetryKind : std::uint16_t {
  kPhase = 0,
  kSpan,
  kCollectiveBegin,
  kCollectiveEnd,
  kProgress,
  kRetry,
  kFault,
};

[[nodiscard]] const char* telemetry_kind_name(TelemetryKind kind);

/// One fixed-size telemetry event (48 bytes).
struct TelemetryEvent {
  TelemetryKind kind = TelemetryKind::kSpan;
  std::uint16_t pad = 0;
  std::int32_t rank = 0;      ///< obs::thread_rank() at publish time
  std::int64_t t_us = 0;      ///< microseconds since the live epoch
  const char* label = "";     ///< static-storage label
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

/// Lock-free single-producer / single-consumer ring of TelemetryEvents.
/// try_push (producer side) and drain (consumer side) may race with each
/// other but not with themselves.  A full ring drops the event and counts
/// it instead of blocking the producer.
class TelemetryRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// `capacity` is rounded up to a power of two (>= 2).
  explicit TelemetryRing(std::size_t capacity = kDefaultCapacity);

  /// Producer side: false (and one drop counted) when the ring is full.
  bool try_push(const TelemetryEvent& ev) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = ev;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends every pending event to `out` in push order and
  /// returns how many were drained.
  std::size_t drain(std::vector<TelemetryEvent>& out);

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Events dropped because the ring was full (monotonic).
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Approximate pending-event count (racy; exact when quiescent).
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

 private:
  std::vector<TelemetryEvent> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  ///< consumer position
  std::atomic<std::uint64_t> tail_{0};  ///< producer position
  std::atomic<std::uint64_t> dropped_{0};
};

namespace detail {

/// Combined observability gate: bit 0 = trace session enabled, bit 1 =
/// live telemetry enabled.  One relaxed load tests both.
inline constexpr std::uint32_t kGateTrace = 1u;
inline constexpr std::uint32_t kGateLive = 2u;
extern std::atomic<std::uint32_t> g_obs_gate;

void set_gate_bit(std::uint32_t bit, bool on);

}  // namespace detail

/// Both gate bits with one relaxed load (TraceScope's fast path).
[[nodiscard]] inline std::uint32_t obs_gate() {
  return detail::g_obs_gate.load(std::memory_order_relaxed);
}

/// True when the LiveMonitor is running and events should be published.
[[nodiscard]] inline bool live_enabled() {
  return (obs_gate() & detail::kGateLive) != 0;
}

/// Microseconds since the process-stable epoch (steady clock): the one
/// clock that stamps trace spans, phase timings and live telemetry events.
[[nodiscard]] std::int64_t now_us();

/// Out-of-line publish path: stamps rank + timestamp and pushes into the
/// calling thread's ring.  Only call when live_enabled().
void telemetry_publish_slow(TelemetryKind kind, const char* label,
                            double a = 0.0, double b = 0.0, double c = 0.0);

/// Publishes one event into the calling thread's ring.  One relaxed load +
/// branch when live monitoring is off.
inline void telemetry_publish(TelemetryKind kind, const char* label,
                              double a = 0.0, double b = 0.0, double c = 0.0) {
  if (!live_enabled()) {
    return;
  }
  telemetry_publish_slow(kind, label, a, b, c);
}

/// Consumer API (LiveMonitor / tests): drains every registered per-thread
/// ring into `out` (append; unordered across threads) and returns the
/// number of events drained.  Rings of exited threads are drained one last
/// time and then retired.
std::size_t telemetry_drain(std::vector<TelemetryEvent>& out);

/// Total events dropped across all rings, including retired ones
/// (monotonic since telemetry_reset).
[[nodiscard]] std::uint64_t telemetry_dropped();

/// Drops pending events and zeroes the drop counters (LiveMonitor::start).
void telemetry_reset();

}  // namespace rcf::obs
