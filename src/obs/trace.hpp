// Per-rank tracing: RAII spans and solver phases, emitted once into the
// event stream (telemetry.hpp) and exported from its trace store as Chrome
// trace-event JSON (chrome://tracing / Perfetto) or a flat JSONL stream.
//
// Design constraints (see DESIGN.md "Observability"):
//
//  * A disabled span costs a single relaxed atomic load + branch, so the
//    hot paths (engine inner loop, ThreadComm collectives) can stay
//    instrumented unconditionally (verified by BM_TraceScopeDisabled in
//    bench_kernels).
//  * Recording is lock-free on the recording thread: a span is one event
//    pushed into the thread's ring.  snapshot() drains every ring, so it
//    sees every span recorded so far, by any thread, without loss.
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

/// Per-phase aggregate attached to SolveResult: how many spans of each
/// phase a solve executed, the payload they accumulated, and (when tracing
/// or the live monitor was on) their wall time.  Counts are maintained
/// even when both are off, so tests can assert on schedule shape.
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

/// The process-wide trace session: the output configuration of the event
/// stream's trace store and its writers.
class TraceSession {
 public:
  /// The singleton (never destroyed).  Auto-starts from RCF_TRACE /
  /// RCF_TRACE_JSONL / RCF_METRICS on first touch.
  static TraceSession& global();

  /// Enables recording (drops previously collected events) and stores the
  /// output configuration for write_outputs().  Span timestamps keep the
  /// process-stable now_us() epoch, so they are not reset here.
  void start(TraceConfig config = {});

  /// Disables recording.  Spans already emitted stay in the store.
  void stop();

  [[nodiscard]] bool enabled() const {
    return (obs_gate() & detail::kGateTrace) != 0;
  }

  /// Every span and phase recorded so far, by any thread.
  [[nodiscard]] std::vector<TelemetryEvent> snapshot();

  /// Drops all collected events (does not change enabled state or config).
  void clear();

  /// Events collected so far whose name matches.
  [[nodiscard]] std::uint64_t count_spans(std::string_view name);

  /// Writes the configured outputs (Chrome JSON / JSONL / metrics).
  /// Returns false if any configured file could not be written.
  bool write_outputs();

  /// Serializers (also used by write_outputs).
  void write_chrome_trace(std::ostream& out);
  void write_jsonl(std::ostream& out);

 private:
  TraceSession();
  /// Writes one trace output, expanding `%r` into per-rank files.
  bool write_trace_file(const std::string& path,
                        const std::vector<TelemetryEvent>& events,
                        bool chrome);

  std::atomic<bool> warned_shared_path_{false};
  std::mutex mutex_;  // guards config_
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

  /// True when the trace session was started: its outputs are written at
  /// destruction.
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] bool live_active() const { return live_active_; }

 private:
  bool active_ = false;
  bool live_active_ = false;
};

/// RAII span: emits [construction, destruction) as one event for the
/// consumers on at construction.  The span's exact duration is the one
/// latency record: rcf-report derives per-name quantiles from the trace.
/// `seq` stamps the span with a collective sequence number for the
/// cross-rank timeline merge (-1 = not a collective).
class TraceScope {
 public:
  explicit TraceScope(const char* name, double words = 0.0,
                      std::int64_t seq = -1) {
    // One relaxed load tests the trace AND live gates (the packed word in
    // telemetry.hpp): the disabled fast path is a single load + branch.
    const std::uint32_t gate = obs_gate();
    if (gate != 0) [[unlikely]] {
      open(gate, name, words, seq);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (sinks_ != 0) [[unlikely]] {
      close();
    }
  }

 private:
  void open(std::uint32_t gate, const char* name, double words,
            std::int64_t seq);
  void close();

  std::uint8_t sinks_ = 0;
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
/// the wall time is measured -- and one phase event emitted for the trace
/// and/or the live monitor -- only when `tracing` is true or the monitor is
/// running.  Sample enabled() once per solve and pass it here so the
/// fully-disabled per-iteration cost is a bool test plus one relaxed load.
template <typename Fn>
inline void timed_phase(bool tracing, PhaseAgg& agg, const char* name,
                        double words, Fn&& fn) {
  ++agg.count;
  agg.words += words;
  const auto sinks = static_cast<std::uint8_t>(
      obs_gate() & (tracing ? detail::kGateTrace | detail::kGateLive
                            : detail::kGateLive));
  if (sinks == 0) [[likely]] {
    fn();
    return;
  }
  const std::int64_t t0 = now_us();
  fn();
  const std::int64_t dur = now_us() - t0;
  agg.us += dur;
  telemetry_emit({.kind = TelemetryKind::kPhase,
                  .sinks = sinks,
                  .name = name,
                  .start_us = t0,
                  .dur_us = dur,
                  .words = words});
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
