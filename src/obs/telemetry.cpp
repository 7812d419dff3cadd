#include "obs/telemetry.hpp"

#include <bit>
#include <chrono>
#include <memory>
#include <mutex>

#include "obs/trace.hpp"

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

const char* telemetry_kind_name(TelemetryKind kind) {
  switch (kind) {
    case TelemetryKind::kPhase:
      return "phase";
    case TelemetryKind::kSpan:
      return "span";
    case TelemetryKind::kCollectiveBegin:
      return "coll_begin";
    case TelemetryKind::kCollectiveEnd:
      return "coll_end";
    case TelemetryKind::kProgress:
      return "progress";
    case TelemetryKind::kRetry:
      return "retry";
    case TelemetryKind::kFault:
      return "fault";
  }
  return "unknown";
}

TelemetryRing::TelemetryRing(std::size_t capacity) {
  capacity = std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity);
  slots_.resize(capacity);
  mask_ = capacity - 1;
}

std::size_t TelemetryRing::drain(std::vector<TelemetryEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  for (std::uint64_t i = head; i != tail; ++i) {
    out.push_back(slots_[static_cast<std::size_t>(i) & mask_]);
  }
  head_.store(tail, std::memory_order_release);
  return static_cast<std::size_t>(tail - head);
}

namespace {

/// Registry of every live per-thread ring.  Each producing thread holds one
/// shared_ptr (in its thread_local holder); the registry holds another.  A
/// use_count of 1 therefore means the thread exited: the sampler drains
/// such rings one last time, folds their drop counters into
/// `retired_drops`, and removes them.
struct RingRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<TelemetryRing>> rings;
  std::uint64_t retired_drops = 0;
};

RingRegistry& ring_registry() {
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

struct LocalRingHolder {
  std::shared_ptr<TelemetryRing> ring;
};

TelemetryRing& local_ring() {
  thread_local LocalRingHolder holder = [] {
    LocalRingHolder h{std::make_shared<TelemetryRing>()};
    RingRegistry& registry = ring_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.rings.push_back(h.ring);
    return h;
  }();
  return *holder.ring;
}

}  // namespace

std::int64_t now_us() {
  // Process-stable epoch: TraceSession::start() does not reset it, so ages
  // computed from stream timestamps stay valid across trace sessions.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void telemetry_publish_slow(TelemetryKind kind, const char* label, double a,
                            double b, double c) {
  TelemetryEvent ev;
  ev.kind = kind;
  ev.rank = thread_rank();
  ev.t_us = now_us();
  ev.label = label;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  local_ring().try_push(ev);
}

std::size_t telemetry_drain(std::vector<TelemetryEvent>& out) {
  RingRegistry& registry = ring_registry();
  std::vector<std::shared_ptr<TelemetryRing>> rings;
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    rings = registry.rings;
  }
  std::size_t drained = 0;
  for (const auto& ring : rings) {
    drained += ring->drain(out);
  }
  rings.clear();
  // Retire rings whose producing thread exited (registry holds the only
  // reference) and that have no events left -- a use_count of 1 means the
  // thread_local holder was destroyed, which happens-after its last push.
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    std::erase_if(registry.rings, [&](const auto& ring) {
      if (ring.use_count() == 1 && ring->size() == 0) {
        registry.retired_drops += ring->dropped();
        return true;
      }
      return false;
    });
  }
  return drained;
}

std::uint64_t telemetry_dropped() {
  RingRegistry& registry = ring_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::uint64_t total = registry.retired_drops;
  for (const auto& ring : registry.rings) {
    total += ring->dropped();
  }
  return total;
}

void telemetry_reset() {
  RingRegistry& registry = ring_registry();
  std::vector<TelemetryEvent> discard;
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.retired_drops = 0;
  std::erase_if(registry.rings,
                [](const auto& ring) { return ring.use_count() == 1; });
  for (const auto& ring : registry.rings) {
    discard.clear();
    ring->drain(discard);
  }
  // Drop counters of live rings cannot be zeroed without racing their
  // producers; the monitor records the start-of-session value instead.
}

}  // namespace rcf::obs
