#include "obs/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <mutex>

namespace rcf::obs {

namespace detail {

std::atomic<std::uint32_t> g_obs_gate{0};

void set_gate_bit(std::uint32_t bit, bool on) {
  if (on) {
    g_obs_gate.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_obs_gate.fetch_and(~bit, std::memory_order_relaxed);
  }
}

}  // namespace detail

TelemetryRing::TelemetryRing(std::size_t capacity) {
  capacity = std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity);
  slots_.reset(new std::byte[capacity * sizeof(TelemetryEvent)]);
  mask_ = capacity - 1;
}

namespace {

thread_local int t_rank = 0;

constexpr std::size_t kTraceBlock = 1 << 14;

/// Every thread's ring and the two consumers' buffers.  The mutex
/// serializes every drain -- a ring's one consumer at a time -- and guards
/// the buffers and the ring list.
struct Stream {
  std::mutex mutex;
  std::vector<TelemetryRing*> rings;  ///< owned by their threads' LocalRing
  std::uint32_t next_tid = 1;
  std::uint64_t exited_drops = 0;
  /// Spans and phases, for TraceSession, in blocks that never move: a long
  /// trace is not copied again on every growth step.
  std::vector<std::vector<TelemetryEvent>> trace;
  std::vector<TelemetryEvent> live;   ///< everything, for the next fold
  bool live_open = false;
};

Stream& stream() {
  static Stream* s = new Stream();  // leaked: threads may emit after main
  return *s;
}

/// Hands one ring's pending events to their consumers.  Caller holds
/// s.mutex.
void drain_ring_locked(Stream& s, TelemetryRing& ring) {
  ring.drain([&s](const TelemetryEvent& ev) {
    if ((ev.sinks & detail::kGateTrace) != 0 &&
        (ev.kind == TelemetryKind::kSpan || ev.kind == TelemetryKind::kPhase)) {
      if (s.trace.empty() || s.trace.back().size() == kTraceBlock) {
        s.trace.emplace_back().reserve(kTraceBlock);
      }
      s.trace.back().push_back(ev);
    }
    if ((ev.sinks & detail::kGateLive) != 0 && s.live_open) {
      s.live.push_back(ev);
    }
  });
}

void drain_locked(Stream& s) {
  for (TelemetryRing* ring : s.rings) {
    drain_ring_locked(s, *ring);
  }
}

/// The calling thread's ring: registered on the thread's first event, and
/// drained to the consumers and unregistered when the thread exits, so an
/// exited thread holds no memory and loses no event.
struct LocalRing {
  TelemetryRing ring;
  std::uint32_t tid = 0;

  LocalRing() {
    Stream& s = stream();
    std::lock_guard<std::mutex> lock(s.mutex);
    tid = s.next_tid++;
    s.rings.push_back(&ring);
  }
  ~LocalRing() {
    Stream& s = stream();
    std::lock_guard<std::mutex> lock(s.mutex);
    drain_ring_locked(s, ring);
    s.exited_drops += ring.dropped();
    std::erase(s.rings, &ring);
  }
  LocalRing(const LocalRing&) = delete;
  LocalRing& operator=(const LocalRing&) = delete;
};

LocalRing& local_ring() {
  thread_local LocalRing local;
  return local;
}

}  // namespace

std::int64_t now_us() {
  // Process-stable epoch: starting a trace or monitor session does not
  // reset it, so ages computed from stream timestamps stay valid.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void set_thread_rank(int rank) { t_rank = rank; }

int thread_rank() { return t_rank; }

void telemetry_emit(TelemetryEvent ev) {
  LocalRing& local = local_ring();
  ev.rank = static_cast<std::int16_t>(t_rank);
  ev.tid = local.tid;
  TelemetryRing& ring = local.ring;
  if ((ev.sinks & detail::kGateTrace) != 0 &&
      ring.size() >= ring.capacity()) {
    Stream& s = stream();
    std::lock_guard<std::mutex> lock(s.mutex);
    drain_ring_locked(s, ring);
  }
  ring.try_push(ev);
}

void telemetry_drain() {
  Stream& s = stream();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_locked(s);
}

std::vector<TelemetryEvent> trace_events() {
  Stream& s = stream();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_locked(s);
  std::vector<TelemetryEvent> out;
  for (const auto& block : s.trace) {
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

void clear_trace_events() {
  Stream& s = stream();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_locked(s);
  s.trace.clear();
}

void set_live_inbox_open(bool open) {
  Stream& s = stream();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (open) {
    drain_locked(s);  // still closed: stale monitor events are dropped
  }
  s.live.clear();
  s.live_open = open;
}

std::size_t take_live_events(std::vector<TelemetryEvent>& out) {
  Stream& s = stream();
  std::lock_guard<std::mutex> lock(s.mutex);
  drain_locked(s);
  out.swap(s.live);
  s.live.clear();
  return out.size();
}

std::uint64_t telemetry_dropped() {
  Stream& s = stream();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::uint64_t total = s.exited_drops;
  for (const TelemetryRing* ring : s.rings) {
    total += ring->dropped();
  }
  return total;
}

}  // namespace rcf::obs
