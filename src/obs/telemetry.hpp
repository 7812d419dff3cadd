// The event stream: every observable thing the solvers do -- a completed
// span or phase, a collective's entry, an iteration's progress, a retry, an
// injected fault -- is one TelemetryEvent, emitted once into the calling
// thread's ring and drained from there to whichever consumers were on when
// it happened: the trace store (TraceSession, trace.hpp) and the live
// monitor's fold (LiveMonitor, live.hpp).
//
// Design constraints (see DESIGN.md "Observability"):
//
//  * With both consumers off, an instrumented site costs one relaxed load +
//    branch of the packed gate word (BM_TraceScopeDisabled and
//    BM_TelemetryPublishOff in bench_kernels), so the solvers stay
//    instrumented unconditionally.
//  * Producers never allocate per event and never block on a consumer:
//    each thread owns one registered ring.  A full ring is drained in place
//    when the trace is on (the trace loses nothing); with only the monitor
//    on, the event is dropped and counted (the watchdog surfaces drops as a
//    ring-overflow alert).  A thread's ring is drained when it exits.
//  * Events are fixed-size POD.  Names are `const char*` to static storage
//    (string literals), so no ownership crosses the ring.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace rcf::obs {

/// What an event describes.
enum class TelemetryKind : std::uint8_t {
  kSpan = 0,  ///< a completed TraceScope
  kPhase,     ///< a completed timed_phase (a solver phase)
  kBegin,     ///< a sequence-stamped span opened (for in-flight ageing)
  kProgress,  ///< a solver iteration recorded
  kRetry,     ///< a collective retried
  kFault,     ///< an injected fault fired
};

/// The one event record.
struct TelemetryEvent {
  TelemetryKind kind = TelemetryKind::kSpan;
  /// Gate bits (detail::kGateTrace, kGateLive) of the consumers that were
  /// on when the event happened; the drain hands it to those alone.
  std::uint8_t sinks = 0;
  /// obs::thread_rank() at emit time (Chrome pid); 16 bits keep the event
  /// in one cache line, and a rank is a thread of one ThreadGroup.
  std::int16_t rank = 0;
  std::uint32_t tid = 0;   ///< per-thread serial (Chrome tid)
  const char* name = "";   ///< static-storage label ("allreduce", "iter", ...)
  std::int64_t start_us = 0;  ///< now_us() at the start (instants: the stamp)
  std::int64_t dur_us = 0;    ///< span or phase duration; 0 for instants
  /// Engine-space collective sequence number stamped by the comm backends
  /// (-1 = not a collective); the cross-rank timeline merge aligns on it.
  /// Instants carry their ordinal: the iteration, retry or call number.
  std::int64_t seq = -1;
  double words = 0.0;      ///< payload words (0 = omitted from trace args)
  double objective = 0.0;  ///< progress: F(w) (NaN when not evaluated)
  double step = 0.0;       ///< progress: ||w_n - w_{n-1}||

  [[nodiscard]] std::int64_t end_us() const { return start_us + dur_us; }
};
static_assert(sizeof(TelemetryEvent) <= 64, "one event per cache line");

/// Lock-free ring of TelemetryEvents with one producer (the owning thread)
/// and one consumer at a time (drains are serialized by the stream).  A
/// full ring drops the event and counts it instead of blocking.
class TelemetryRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// `capacity` is rounded up to a power of two (>= 2).
  explicit TelemetryRing(std::size_t capacity = kDefaultCapacity);

  /// Producer side: false (and one drop counted) when the ring is full.
  bool try_push(const TelemetryEvent& ev) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::memcpy(slot(tail), &ev, sizeof(TelemetryEvent));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: hands every pending event to `sink` in push order and
  /// returns how many there were.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    for (std::uint64_t i = head; i != tail; ++i) {
      TelemetryEvent ev;
      std::memcpy(&ev, slot(i), sizeof(TelemetryEvent));
      sink(ev);
    }
    head_.store(tail, std::memory_order_release);
    return static_cast<std::size_t>(tail - head);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
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
  [[nodiscard]] std::byte* slot(std::uint64_t i) const {
    return slots_.get() +
           (static_cast<std::size_t>(i) & mask_) * sizeof(TelemetryEvent);
  }

  /// Uninitialized storage (events are trivially copyable): a new thread's
  /// ring costs an allocation, not a store per slot.
  std::unique_ptr<std::byte[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  ///< consumer position
  std::atomic<std::uint64_t> tail_{0};  ///< producer position
  std::atomic<std::uint64_t> dropped_{0};
};

namespace detail {

/// Combined observability gate: bit 0 = trace session enabled, bit 1 =
/// live monitor running.  One relaxed load tests both.
inline constexpr std::uint8_t kGateTrace = 1u;
inline constexpr std::uint8_t kGateLive = 2u;
extern std::atomic<std::uint32_t> g_obs_gate;

void set_gate_bit(std::uint32_t bit, bool on);

}  // namespace detail

/// Both gate bits with one relaxed load (TraceScope's fast path).
[[nodiscard]] inline std::uint32_t obs_gate() {
  return detail::g_obs_gate.load(std::memory_order_relaxed);
}

/// True when the LiveMonitor is running.
[[nodiscard]] inline bool live_enabled() {
  return (obs_gate() & detail::kGateLive) != 0;
}

/// Microseconds since the process-stable epoch (steady clock): the one
/// clock that stamps every event.
[[nodiscard]] std::int64_t now_us();

/// SPMD rank stamped on the calling thread's events (ThreadGroup::run sets
/// it per rank; 0 otherwise).
void set_thread_rank(int rank);
[[nodiscard]] int thread_rank();

/// The one emit function: stamps the calling thread's rank and tid on `ev`
/// and pushes it into the thread's ring.  Call only with `ev.sinks` != 0;
/// TraceScope, timed_phase and telemetry_publish are the gated entry
/// points.
void telemetry_emit(TelemetryEvent ev);

/// Publishes an instant (progress, retry or fault) for the live monitor:
/// one relaxed load + branch when the monitor is off.
inline void telemetry_publish(TelemetryKind kind, const char* name,
                              std::int64_t seq, double objective = 0.0,
                              double step = 0.0) {
  if (!live_enabled()) [[likely]] {
    return;
  }
  telemetry_emit({.kind = kind,
                  .sinks = detail::kGateLive,
                  .name = name,
                  .start_us = now_us(),
                  .seq = seq,
                  .objective = objective,
                  .step = step});
}

/// The one drain: empties every thread's ring and hands each event to the
/// consumers it was emitted for -- spans and phases stamped for the trace
/// to the trace store, every event stamped for the monitor to the live
/// inbox while it is open.  Any thread may drain; drains are serialized.
/// A thread's ring is drained one last time when the thread exits.
void telemetry_drain();

/// Drains, then returns a copy of the trace store.
[[nodiscard]] std::vector<TelemetryEvent> trace_events();

/// Drains (so stale events cannot land later), then empties the store.
void clear_trace_events();

/// Opens or closes the live inbox.  Opening drains first with it closed,
/// so events of an earlier monitor session never reach a new one.
void set_live_inbox_open(bool open);

/// Drains, then moves the live inbox's events to `out` (replacing its
/// contents) and returns how many there were.
std::size_t take_live_events(std::vector<TelemetryEvent>& out);

/// Total events dropped across all rings, those of exited threads too.
[[nodiscard]] std::uint64_t telemetry_dropped();

}  // namespace rcf::obs
