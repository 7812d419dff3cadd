// Per-rank tracing: RAII spans recorded into per-thread buffers and
// exported as Chrome trace-event JSON (chrome://tracing / Perfetto) or a
// flat JSONL stream.
//
// Design constraints (see DESIGN.md "Observability"):
//
//  * A disabled span costs a single relaxed atomic load + branch, so the
//    hot paths (engine inner loop, ThreadComm collectives) can stay
//    instrumented unconditionally (verified by BM_TraceScopeDisabled in
//    bench_kernels).
//  * Recording is lock-free on the recording thread: events append to a
//    thread_local buffer that is flushed into the session's central store
//    under a mutex only when the buffer fills, the thread exits, or the
//    session is stopped.  snapshot() therefore sees every event from
//    threads that have exited (ThreadGroup joins its ranks before control
//    returns) plus the calling thread's events.
//  * Span attribution: rank comes from the thread-local set by
//    set_thread_rank (ThreadGroup::run sets it per rank; 0 otherwise), and
//    tid is a small per-thread serial.
//
// The session is configured programmatically (start/stop), from CLI flags
// (--trace-out / --trace-jsonl / --metrics-out; see bench_util and the
// examples), or from the environment: RCF_TRACE=<path> (Chrome JSON),
// RCF_TRACE_JSONL=<path>, RCF_METRICS=<path>.  Env-configured sessions
// write their outputs at process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"

namespace rcf::obs {

/// One completed span ("X" duration event in the Chrome trace format).
struct TraceEvent {
  const char* name = "";    ///< static-storage span label ("allreduce", ...)
  int rank = 0;             ///< SPMD rank (pid in the Chrome trace)
  std::uint32_t tid = 0;    ///< per-thread serial (tid in the Chrome trace)
  std::int64_t start_us = 0;  ///< now_us() stamp (process-stable epoch)
  std::int64_t dur_us = 0;    ///< span duration in microseconds
  double words = 0.0;       ///< payload counter (0 = omitted from args)
  /// Engine-space collective sequence number stamped by the comm backends
  /// (the contract checker's per-endpoint counting scheme); -1 for
  /// non-collective spans.  The cross-rank timeline merge aligns on it.
  std::int64_t seq = -1;
};

/// Per-phase aggregate attached to SolveResult: how many spans of each
/// phase a solve executed, and (when tracing was enabled) the wall time
/// and payload they accumulated.  Counts are maintained even when tracing
/// is off, so tests can assert on schedule shape without a live session.
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double seconds = 0.0;  ///< measured wall time; 0 unless tracing/live is on
  double payload_words = 0.0;  ///< accumulated payload counters
};
using PhaseSummary = std::vector<PhaseStat>;

/// Lookup by phase name; nullptr if absent.
[[nodiscard]] const PhaseStat* find_phase(const PhaseSummary& summary,
                                          std::string_view name);

/// Renders the summary as an aligned text table (for example/bench output).
[[nodiscard]] std::string phase_table(const PhaseSummary& summary);

/// Output targets of a trace session; empty path = that output disabled.
/// Trace paths may contain a `%r` rank placeholder: write_outputs() then
/// splits the events by rank and writes one file per rank, so multi-rank
/// runs never interleave or clobber a shared file.  Without the
/// placeholder a multi-rank session still writes one merged file (all
/// ranks share one clock) but warns once.
struct TraceConfig {
  std::string trace_out;    ///< Chrome trace-event JSON
  std::string jsonl_out;    ///< flat JSONL stream (one event per line)
  std::string metrics_out;  ///< metrics registry JSON dump
};

/// Replaces every `%r` in `path` with the decimal rank.
[[nodiscard]] std::string expand_rank_path(const std::string& path, int rank);

/// SPMD rank used to attribute spans recorded by the calling thread.
void set_thread_rank(int rank);
[[nodiscard]] int thread_rank();

/// The process-wide trace session.  All recording goes through global().
class TraceSession {
 public:
  /// The singleton (never destroyed, so thread-exit flushes are always
  /// safe).  Auto-starts from RCF_TRACE / RCF_TRACE_JSONL / RCF_METRICS on
  /// first touch.
  static TraceSession& global();

  /// Enables recording (clears previously collected events) and stores the
  /// output configuration for write_outputs().  Span timestamps keep the
  /// process-stable now_us() epoch, so they are not reset here.
  void start(TraceConfig config = {});

  /// Disables recording and flushes the calling thread's buffer.
  void stop();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one completed span for the calling thread; rank/tid are
  /// filled in from the thread-local state.  No-op when disabled.
  /// `seq` is the collective sequence number (-1 = not a collective).
  void record(const char* name, std::int64_t start_us, std::int64_t dur_us,
              double words = 0.0, std::int64_t seq = -1);

  /// Flushes the calling thread's buffer and returns a copy of every event
  /// collected so far (events of still-running other threads may be
  /// missing; ThreadGroup joins its ranks, so solver runs are complete).
  [[nodiscard]] std::vector<TraceEvent> snapshot();

  /// Drops all collected events (does not change enabled state or config).
  void clear();

  /// Events collected so far whose name matches (flushes like snapshot()).
  [[nodiscard]] std::uint64_t count_spans(std::string_view name);

  /// Writes the configured outputs (Chrome JSON / JSONL / metrics).
  /// Returns false if any configured file could not be written.
  bool write_outputs();

  /// Serializers (also used by write_outputs).
  void write_chrome_trace(std::ostream& out);
  void write_jsonl(std::ostream& out);

 private:
  TraceSession();
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();
  void flush_buffer(ThreadBuffer& buffer);
  /// Writes one trace output, expanding `%r` into per-rank files.
  bool write_trace_file(const std::string& path,
                        const std::vector<TraceEvent>& events, bool chrome);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_tid_{1};
  std::atomic<bool> warned_shared_path_{false};
  std::mutex mutex_;  // guards store_ and config_
  std::vector<TraceEvent> store_;
  TraceConfig config_;
};

/// RAII wrapper for CLI-configured observability: starts the global trace
/// session when at least one trace path is non-empty, starts the live
/// monitor (obs::LiveMonitor) when `live_out` is non-empty, and stops /
/// flushes both on destruction.  Inert (active() == false) when every path
/// is empty, so callers can construct it unconditionally from flag values.
class ScopedSession {
 public:
  ScopedSession(std::string trace_out, std::string jsonl_out,
                std::string metrics_out, std::string live_out = {});
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;
  ~ScopedSession();

  /// True when the trace session or the live monitor was started.
  [[nodiscard]] bool active() const { return active_ || live_active_; }
  [[nodiscard]] bool live_active() const { return live_active_; }

 private:
  bool active_ = false;
  bool live_active_ = false;
};

/// RAII span: records [construction, destruction) into the global session
/// and/or publishes it on the live telemetry bus.  The span's exact
/// duration is the one latency record: rcf-report derives per-name
/// quantiles from the trace.  `seq` stamps the span with a collective
/// sequence number for the cross-rank timeline merge (-1 = not a
/// collective).
class TraceScope {
 public:
  explicit TraceScope(const char* name, double words = 0.0,
                      std::int64_t seq = -1) {
    // One relaxed load tests the trace AND live gates (the packed word in
    // telemetry.hpp), keeping the disabled fast path at a single load +
    // branch even with live telemetry compiled in.
    const std::uint32_t gate = obs_gate();
    if (gate == 0) {
      return;
    }
    name_ = name;
    words_ = words;
    seq_ = seq;
    active_ = (gate & detail::kGateTrace) != 0;
    live_ = (gate & detail::kGateLive) != 0;
    start_us_ = now_us();
    if (live_ && seq_ >= 0) {
      // Collectives announce themselves on entry so the monitor can age
      // in-flight operations (a hung allreduce is visible while stuck).
      telemetry_publish_slow(TelemetryKind::kCollectiveBegin, name_,
                             static_cast<double>(seq_), words_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope();

 private:
  bool active_ = false;
  bool live_ = false;
  const char* name_ = "";
  double words_ = 0.0;
  std::int64_t seq_ = -1;
  std::int64_t start_us_ = 0;
};

/// Accumulator for one phase of a solver loop (see PhaseStat).
struct PhaseAgg {
  std::uint64_t count = 0;
  std::int64_t us = 0;
  double words = 0.0;

  PhaseAgg& operator+=(const PhaseAgg& o) {
    count += o.count;
    us += o.us;
    words += o.words;
    return *this;
  }
};

/// Runs `fn()` as one span of phase `name`: the count and payload always
/// accumulate into `agg` (so schedule-shape assertions work untraced), but
/// the wall time is measured -- and a span emitted to the global session
/// and/or the live telemetry bus -- only when `tracing` is true or the
/// live monitor is running.  Sample enabled() once per solve and pass it
/// here so the fully-disabled per-iteration cost is a bool test plus one
/// relaxed load.
template <typename Fn>
inline void timed_phase(bool tracing, PhaseAgg& agg, const char* name,
                        double words, Fn&& fn) {
  ++agg.count;
  agg.words += words;
  const bool live = live_enabled();
  if (!tracing && !live) {
    fn();
    return;
  }
  const std::int64_t t0 = now_us();
  fn();
  const std::int64_t dur = now_us() - t0;
  if (tracing) {
    TraceSession::global().record(name, t0, dur, words);
  }
  agg.us += dur;
  if (live) {
    telemetry_publish_slow(TelemetryKind::kPhase, name,
                           static_cast<double>(dur), words);
  }
}

/// Appends one PhaseStat built from `agg` (skips never-hit phases).
void append_phase(PhaseSummary& summary, const char* name,
                  const PhaseAgg& agg);

}  // namespace rcf::obs

#define RCF_TRACE_CONCAT_INNER(a, b) a##b
#define RCF_TRACE_CONCAT(a, b) RCF_TRACE_CONCAT_INNER(a, b)

/// Traces the enclosing scope under `name` (a string literal or other
/// static-storage string).  One branch when tracing is disabled.
#define RCF_TRACE_SCOPE(name) \
  ::rcf::obs::TraceScope RCF_TRACE_CONCAT(rcf_trace_scope_, __LINE__)(name)

/// Same, with a payload-words counter attached to the span.
#define RCF_TRACE_SCOPE_W(name, words)                                  \
  ::rcf::obs::TraceScope RCF_TRACE_CONCAT(rcf_trace_scope_, __LINE__)(  \
      name, static_cast<double>(words))
