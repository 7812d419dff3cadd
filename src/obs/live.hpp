// LiveMonitor: the live consumer of the event stream (telemetry.hpp).  At a
// configurable period it takes the events drained for it, folds them into
// per-rank occupancy / progress state and a MetricsRegistry delta
// snapshot, runs the health watchdog (watchdog.hpp) over the resulting
// sample, and streams length-prefixed JSONL records to a file for
// tools/rcf-top to tail.  Occupancy uses the timeline's span classes
// (classify_span): communication is net of its nested waits, as in
// rcf-report, and each collective counts once, at its allreduce span.
//
// Stream framing: every record is `<decimal byte length>\t<json>\n` so a
// tailer can frame records without re-scanning for newlines inside
// strings.  Record types (the "type" member): "header" (once, stream
// metadata), "snapshot" (one per sample period), "alert" (one per
// watchdog alert).
//
// Activation: programmatic (start/stop), `--live=<path>` on the benches and
// examples (ScopedSession), or RCF_LIVE=1|<path> in the environment
// (live_autoconfigure_from_env, hooked into TraceSession's env autostart
// so every solver entry point picks it up).  Both CLI and env start the
// monitor with live_config_from_env().
//
// Overhead contract: when the monitor is off, producers pay one relaxed
// load per event (see telemetry.hpp); when on, the sampler thread does
// all folding/serialization off the solver's critical path, and its own
// busy time is published as live.sampler.busy_us so the overhead is
// itself observable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/watchdog.hpp"

namespace rcf::obs {

/// Configuration of one live-monitoring session.
struct LiveConfig {
  /// Output stream file path.  Empty disables the stream (the monitor
  /// still samples and keeps alerts/metrics, which is what the in-process
  /// annotation path uses).
  std::string out = "rcf_live.jsonl";
  /// Sampling period (RCF_LIVE_PERIOD_MS in live_config_from_env).
  int period_ms = 250;
  /// Watchdog thresholds (watchdog_config_from_env() on the env path).
  WatchdogConfig watchdog;
};

/// The process-wide live monitor.  start() spawns the sampler thread and
/// opens the gate bit that makes telemetry_publish() record; stop() closes
/// it, takes one final sample, and joins the thread.  All entry points are
/// thread-safe.
class LiveMonitor {
 public:
  static LiveMonitor& global();

  LiveMonitor(const LiveMonitor&) = delete;
  LiveMonitor& operator=(const LiveMonitor&) = delete;

  /// Starts a session; false if one is already running (the running
  /// session is left undisturbed).  Resets alert history and per-rank state
  /// from any previous session; no earlier event reaches the new one.
  bool start(LiveConfig config = {});

  /// Takes a final sample, stops the sampler thread, and closes the
  /// stream.  No-op when not running.
  void stop();

  [[nodiscard]] bool running() const;

  /// Forces one sampling pass right now (synchronous with the sampler
  /// thread).  Used at solve end so the annotation path sees the freshest
  /// state, and by tests to avoid timing dependence.  No-op when not
  /// running.
  void sample_now();

  /// Alerts raised so far this session (monotonic while running; reset by
  /// start()).
  [[nodiscard]] std::uint64_t alert_count() const;

  /// Alerts with session index >= `mark` (mark = alert_count() taken
  /// earlier).  Alerts beyond the retention bound (kMaxAlerts) are
  /// dropped oldest-first; callers get what is retained.
  [[nodiscard]] std::vector<Alert> alerts_since(std::uint64_t mark) const;

  /// The active session's watchdog thresholds (defaults when not running).
  [[nodiscard]] WatchdogConfig watchdog_config() const;

  /// Retained-alert bound (alerts beyond this are dropped oldest-first).
  static constexpr std::size_t kMaxAlerts = 1024;

  struct Impl;  ///< opaque; defined in live.cpp

 private:
  LiveMonitor();
  ~LiveMonitor() = delete;  // process-lifetime singleton

  Impl* impl_;
};

/// The configuration the CLI (`--live=<path>`) and env (RCF_LIVE) paths
/// start the monitor with: streams to `out`, samples every
/// RCF_LIVE_PERIOD_MS milliseconds (a value that is not a positive integer
/// is named in a warning and the default kept), and takes the watchdog's
/// RCF_LIVE_* thresholds.
[[nodiscard]] LiveConfig live_config_from_env(std::string out);

/// Env activation: RCF_LIVE=1 streams to "rcf_live.jsonl" in the working
/// directory, RCF_LIVE=<path> streams there; unset/empty/0 does nothing.
/// Called from TraceSession's construction (every solver entry point
/// touches it); a session it starts is stopped at process exit.
void live_autoconfigure_from_env();

}  // namespace rcf::obs
