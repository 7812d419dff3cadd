#include "obs/live.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"

namespace rcf::obs {

namespace {

/// Open-collective entries older than this are presumed to have lost their
/// end event (ring overflow) and are pruned rather than poisoning the
/// in-flight-age display forever.
constexpr std::int64_t kStaleOpenUs = 600'000'000;

/// Finite double as JSON number; NaN/Inf (not representable) as null.
void append_num(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

}  // namespace

struct LiveMonitor::Impl {
  mutable std::mutex mutex;
  std::condition_variable cv;
  bool running = false;
  bool stop_requested = false;
  std::thread sampler;  // rcf-analyze: allow(telemetry-discipline) sampler drains rings off the solver's critical path

  LiveConfig config;

  // -- stream sink --------------------------------------------------------
  std::ofstream file;
  bool sink_failed = false;

  // -- per-session fold state ---------------------------------------------
  struct RankState {
    std::uint64_t epoch = 0;
    std::int64_t last_progress_us = 0;
    double objective = std::nan("");
    double step = std::nan("");
    // Cumulative and per-window occupancy, microseconds.
    double compute_us = 0.0;
    double comm_us = 0.0;
    double wait_us = 0.0;
    double win_compute_us = 0.0;
    double win_comm_us = 0.0;
    double win_wait_us = 0.0;
    std::uint64_t events = 0;
    std::uint64_t collectives = 0;
  };
  struct OpenCollective {
    std::int64_t begin_us = 0;
    double words = 0.0;
  };

  std::map<int, RankState> ranks;
  std::map<std::pair<int, std::int64_t>, OpenCollective> open;
  Watchdog watchdog;
  MetricsSnapshot prev_metrics;
  std::uint64_t drops_base = 0;
  std::uint64_t retries_total = 0;
  std::uint64_t faults_total = 0;
  std::uint64_t sample_index = 0;
  std::uint64_t prev_max_epoch = 0;
  std::int64_t session_start_us = 0;
  std::int64_t prev_t_us = 0;
  std::int64_t busy_total_us = 0;

  // -- retained alerts (bounded; session indices are monotonic) -----------
  std::deque<Alert> alerts;
  std::uint64_t alerts_evicted = 0;

  // scratch (reused across samples to avoid per-pass allocation)
  std::vector<TelemetryEvent> events;
  std::vector<ConvergenceRecord> conv_scratch;
};

namespace {

void open_sink(LiveMonitor::Impl& im) {
  im.sink_failed = false;
  const std::string& out = im.config.out;
  if (out.empty()) {
    return;
  }
  im.file.open(out, std::ios::out | std::ios::trunc);
  if (!im.file) {
    std::fprintf(stderr,
                 "rcf: live monitor could not open %s; streaming disabled\n",
                 out.c_str());
    im.sink_failed = true;
  }
}

void close_sink(LiveMonitor::Impl& im) {
  if (im.file.is_open()) {
    im.file.close();
  }
}

/// Writes one record with the `<decimal byte length>\t<json>\n` framing.
void write_record(LiveMonitor::Impl& im, const std::string& json) {
  if (im.sink_failed) {
    return;
  }
  std::string frame;
  frame.reserve(json.size() + 16);
  append_u64(frame, json.size());
  frame += '\t';
  frame += json;
  frame += '\n';
  if (im.file.is_open()) {
    im.file << frame;
    im.file.flush();  // tailers (rcf-top) read mid-run
    if (!im.file) {
      im.sink_failed = true;
    }
  }
}

std::string header_json(const LiveMonitor::Impl& im) {
  const WatchdogConfig& w = im.config.watchdog;
  std::string out = "{\"type\":\"header\",\"version\":1,\"t_us\":";
  append_i64(out, im.session_start_us);
  out += ",\"period_ms\":";
  append_i64(out, im.config.period_ms);
  out += ",\"watchdog\":{\"stall_window\":";
  append_i64(out, w.stall_window);
  out += ",\"stall_rel_improvement\":";
  append_num(out, w.stall_rel_improvement);
  out += ",\"divergence_factor\":";
  append_num(out, w.divergence_factor);
  out += ",\"straggler_epochs\":";
  append_u64(out, w.straggler_epochs);
  out += ",\"straggler_grace_us\":";
  append_i64(out, w.straggler_grace_us);
  out += ",\"retry_storm\":";
  append_u64(out, w.retry_storm);
  out += "}}";
  return out;
}

/// Adds `us` of occupancy to one of a rank's cumulative/window pairs.
void occupy(double& total, double& window, double us) {
  total += us;
  window += us;
}

void fold_event(LiveMonitor::Impl& im, const TelemetryEvent& ev) {
  auto [it, inserted] = im.ranks.try_emplace(ev.rank);
  LiveMonitor::Impl::RankState& rs = it->second;
  if (inserted) {
    rs.last_progress_us = im.session_start_us;
  }
  ++rs.events;
  switch (ev.kind) {
    case TelemetryKind::kSpan:
    case TelemetryKind::kPhase: {
      const auto us = static_cast<double>(ev.dur_us);
      switch (classify_span(ev.name)) {
        case SpanCategory::kComm:
          occupy(rs.comm_us, rs.win_comm_us, us);
          ++rs.collectives;
          im.open.erase(std::make_pair(ev.rank, ev.seq));
          break;
        case SpanCategory::kWait:
          // Waits nest inside their collective: comm is net of them.
          occupy(rs.wait_us, rs.win_wait_us, us);
          occupy(rs.comm_us, rs.win_comm_us, -us);
          break;
        case SpanCategory::kCompute:
          // Spans nest inside phases (pool slices, kernels): only phases
          // count, so nothing is counted twice.
          if (ev.kind == TelemetryKind::kPhase) {
            occupy(rs.compute_us, rs.win_compute_us, us);
          }
          break;
        case SpanCategory::kAux:
        case SpanCategory::kChecker:
          break;
      }
      break;
    }
    case TelemetryKind::kBegin:
      // A collective's own span opens it; its nested waits carry the same
      // sequence number and announce themselves too.
      if (classify_span(ev.name) == SpanCategory::kComm) {
        im.open.emplace(std::make_pair(ev.rank, ev.seq),
                        LiveMonitor::Impl::OpenCollective{ev.start_us,
                                                          ev.words});
      }
      break;
    case TelemetryKind::kProgress: {
      const auto iter = static_cast<std::uint64_t>(ev.seq);
      rs.epoch = std::max(rs.epoch, iter);
      rs.last_progress_us = std::max(rs.last_progress_us, ev.start_us);
      rs.objective = ev.objective;
      rs.step = ev.step;
      // The watchdog's convergence rules follow rank 0's series (only rank
      // 0 evaluates the objective for the history; the other ranks publish
      // it only under tol stopping).
      if (ev.rank == 0) {
        ConvergenceRecord rec;
        rec.iteration = iter;
        rec.objective = ev.objective;
        rec.step = ev.step;
        im.conv_scratch.push_back(rec);
      }
      break;
    }
    case TelemetryKind::kRetry:
      ++im.retries_total;
      break;
    case TelemetryKind::kFault:
      ++im.faults_total;
      break;
  }
}

std::string snapshot_json(const LiveMonitor::Impl& im, const HealthSample& hs,
                          const MetricsSnapshot& delta, std::size_t drained,
                          std::uint64_t max_epoch, double iters_per_s,
                          std::size_t inflight, std::int64_t inflight_age_us) {
  std::string out;
  out.reserve(512 + im.ranks.size() * 192);
  out += "{\"type\":\"snapshot\",\"n\":";
  append_u64(out, im.sample_index);
  out += ",\"t_us\":";
  append_i64(out, hs.t_us);
  out += ",\"epoch\":";
  append_u64(out, max_epoch);
  out += ",\"iters_per_s\":";
  append_num(out, iters_per_s);
  // Whole-run communication fraction over this window (wait counts as
  // communication: time the solver is blocked on the fabric).
  double wc = 0.0, wm = 0.0, ww = 0.0;
  for (const auto& [rank, rs] : im.ranks) {
    wc += rs.win_compute_us;
    wm += std::max(rs.win_comm_us, 0.0);
    ww += rs.win_wait_us;
  }
  const double busy = wc + wm + ww;
  out += ",\"comm_frac\":";
  append_num(out, busy > 0.0 ? (wm + ww) / busy : 0.0);
  out += ",\"inflight\":{\"count\":";
  append_u64(out, inflight);
  out += ",\"max_age_us\":";
  append_i64(out, inflight_age_us);
  out += "},\"events\":";
  append_u64(out, drained);
  out += ",\"retries\":";
  append_u64(out, hs.retries_total);
  out += ",\"faults\":";
  append_u64(out, hs.faults_total);
  out += ",\"drops\":";
  append_u64(out, hs.drops_total);
  out += ",\"alerts\":";
  append_u64(out, im.alerts_evicted + im.alerts.size());
  out += ",\"ranks\":[";
  bool first = true;
  for (const auto& [rank, rs] : im.ranks) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"rank\":";
    append_i64(out, rank);
    out += ",\"epoch\":";
    append_u64(out, rs.epoch);
    out += ",\"idle_us\":";
    append_i64(out, std::max<std::int64_t>(0, hs.t_us - rs.last_progress_us));
    out += ",\"objective\":";
    append_num(out, rs.objective);
    out += ",\"step\":";
    append_num(out, rs.step);
    // A window can hold a wait whose collective ends in the next one; comm
    // is clamped at zero, as the timeline clamps it.
    const double win_comm = std::max(rs.win_comm_us, 0.0);
    const double rbusy = rs.win_compute_us + win_comm + rs.win_wait_us;
    out += ",\"frac\":{\"compute\":";
    append_num(out, rbusy > 0.0 ? rs.win_compute_us / rbusy : 0.0);
    out += ",\"comm\":";
    append_num(out, rbusy > 0.0 ? win_comm / rbusy : 0.0);
    out += ",\"wait\":";
    append_num(out, rbusy > 0.0 ? rs.win_wait_us / rbusy : 0.0);
    out += "},\"busy_us\":{\"compute\":";
    append_num(out, rs.compute_us);
    out += ",\"comm\":";
    append_num(out, std::max(rs.comm_us, 0.0));
    out += ",\"wait\":";
    append_num(out, rs.wait_us);
    out += "},\"collectives\":";
    append_u64(out, rs.collectives);
    out += '}';
  }
  out += "],\"counters\":{";
  first = true;
  for (const auto& [name, value] : delta.counters) {
    if (value == 0) {
      continue;  // only instruments that moved this window
    }
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":";
    append_u64(out, value);
  }
  out += "}}";
  return out;
}

}  // namespace

LiveMonitor::LiveMonitor() : impl_(new Impl()) {}

LiveMonitor& LiveMonitor::global() {
  static LiveMonitor* monitor = new LiveMonitor();
  return *monitor;
}

namespace {

/// One full sampling pass.  Caller holds im.mutex.
void sample_locked(LiveMonitor::Impl& im) {
  const std::int64_t t0 = now_us();
  const std::size_t drained = take_live_events(im.events);
  // Rings are per-thread, so the merged batch is unordered across
  // producers; sort by emit time so last-write-wins folds (objective,
  // step) and the watchdog's convergence series are deterministic.
  std::stable_sort(im.events.begin(), im.events.end(),
                   [](const TelemetryEvent& x, const TelemetryEvent& y) {
                     return x.end_us() < y.end_us();
                   });
  im.conv_scratch.clear();
  for (auto& [rank, rs] : im.ranks) {
    rs.win_compute_us = 0.0;
    rs.win_comm_us = 0.0;
    rs.win_wait_us = 0.0;
  }
  const std::int64_t now = now_us();
  for (const TelemetryEvent& ev : im.events) {
    fold_event(im, ev);
  }
  // In-flight collectives: age of the oldest open span; prune entries that
  // lost their end event to ring overflow.
  std::size_t inflight = 0;
  std::int64_t inflight_age_us = 0;
  for (auto it = im.open.begin(); it != im.open.end();) {
    const std::int64_t age = now - it->second.begin_us;
    if (age > kStaleOpenUs) {
      it = im.open.erase(it);
      continue;
    }
    ++inflight;
    inflight_age_us = std::max(inflight_age_us, age);
    ++it;
  }

  HealthSample hs;
  hs.t_us = now;
  std::uint64_t max_epoch = 0;
  for (const auto& [rank, rs] : im.ranks) {
    RankHealth rh;
    rh.rank = rank;
    rh.epoch = rs.epoch;
    rh.idle_us = std::max<std::int64_t>(0, now - rs.last_progress_us);
    hs.ranks.push_back(rh);
    max_epoch = std::max(max_epoch, rs.epoch);
  }
  hs.conv = im.conv_scratch;
  hs.retries_total = im.retries_total;
  hs.faults_total = im.faults_total;
  hs.drops_total = telemetry_dropped() - im.drops_base;

  const std::vector<Alert> alerts = im.watchdog.on_sample(hs);

  MetricsSnapshot cur = MetricsRegistry::global().snapshot();
  const MetricsSnapshot delta = delta_snapshot(im.prev_metrics, cur);
  im.prev_metrics = std::move(cur);

  const double dt_s =
      static_cast<double>(now - im.prev_t_us) / 1e6;
  const double iters_per_s =
      dt_s > 0.0 && max_epoch >= im.prev_max_epoch
          ? static_cast<double>(max_epoch - im.prev_max_epoch) / dt_s
          : 0.0;

  write_record(im, snapshot_json(im, hs, delta, drained, max_epoch,
                                 iters_per_s, inflight, inflight_age_us));

  MetricsRegistry& registry = MetricsRegistry::global();
  for (const Alert& alert : alerts) {
    write_record(im, alert_json(alert));
    im.alerts.push_back(alert);
    if (im.alerts.size() > LiveMonitor::kMaxAlerts) {
      im.alerts.pop_front();
      ++im.alerts_evicted;
    }
    registry.counter("health.alerts").add(1);
    registry.counter(std::string("health.alert.") +
                     alert_kind_name(alert.kind))
        .add(1);
  }

  const std::int64_t busy = now_us() - t0;
  im.busy_total_us += busy;
  registry.counter("live.samples").add(1);
  registry.counter("live.events").add(drained);
  registry.counter("live.sampler.busy_us").add(
      static_cast<std::uint64_t>(busy));
  registry.gauge("live.drops").set(static_cast<double>(hs.drops_total));

  ++im.sample_index;
  im.prev_t_us = now;
  im.prev_max_epoch = max_epoch;
}

void sampler_loop(LiveMonitor::Impl& im) {
  std::unique_lock<std::mutex> lock(im.mutex);
  while (!im.stop_requested) {
    im.cv.wait_for(lock, std::chrono::milliseconds(im.config.period_ms),
                   [&im] { return im.stop_requested; });
    if (im.stop_requested) {
      break;
    }
    sample_locked(im);
  }
}

}  // namespace

bool LiveMonitor::start(LiveConfig config) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mutex);
  if (im.running) {
    return false;
  }
  if (config.period_ms <= 0) {
    config.period_ms = 1;
  }
  im.config = std::move(config);

  set_live_inbox_open(true);
  // Rings' drop counters are monotonic (zeroing them would race their
  // producers); report deltas against the start-of-session value.
  im.drops_base = telemetry_dropped();
  im.ranks.clear();
  im.open.clear();
  im.retries_total = 0;
  im.faults_total = 0;
  im.watchdog = Watchdog(im.config.watchdog);
  im.prev_metrics = MetricsRegistry::global().snapshot();
  im.sample_index = 0;
  im.prev_max_epoch = 0;
  im.session_start_us = now_us();
  im.prev_t_us = im.session_start_us;
  im.busy_total_us = 0;
  im.alerts.clear();
  im.alerts_evicted = 0;

  open_sink(im);
  write_record(im, header_json(im));

  im.stop_requested = false;
  im.running = true;
  detail::set_gate_bit(detail::kGateLive, true);
  im.sampler = std::thread([&im] { sampler_loop(im); });  // rcf-analyze: allow(telemetry-discipline) background sampler, joined in stop()
  return true;
}

void LiveMonitor::stop() {
  Impl& im = *impl_;
  std::thread worker;  // rcf-analyze: allow(telemetry-discipline) join handle moved out of the lock
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    if (!im.running || im.stop_requested) {
      return;
    }
    // Close the gate first so producers stop publishing; the final sample
    // below drains whatever made it into the rings.
    detail::set_gate_bit(detail::kGateLive, false);
    im.stop_requested = true;
    worker = std::move(im.sampler);
  }
  im.cv.notify_all();
  if (worker.joinable()) {
    worker.join();
  }
  std::lock_guard<std::mutex> lock(im.mutex);
  sample_locked(im);
  set_live_inbox_open(false);
  close_sink(im);
  im.running = false;
}

bool LiveMonitor::running() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->running;
}

void LiveMonitor::sample_now() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mutex);
  if (!im.running) {
    return;
  }
  sample_locked(im);
}

std::uint64_t LiveMonitor::alert_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->alerts_evicted + impl_->alerts.size();
}

std::vector<Alert> LiveMonitor::alerts_since(std::uint64_t mark) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<Alert> out;
  const std::uint64_t base = impl_->alerts_evicted;
  for (std::size_t i = 0; i < impl_->alerts.size(); ++i) {
    if (base + i >= mark) {
      out.push_back(impl_->alerts[i]);
    }
  }
  return out;
}

WatchdogConfig LiveMonitor::watchdog_config() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->running ? impl_->config.watchdog : WatchdogConfig{};
}

LiveConfig live_config_from_env(std::string out) {
  LiveConfig config;
  config.out = std::move(out);
  if (const char* p = std::getenv("RCF_LIVE_PERIOD_MS");
      p != nullptr && *p != '\0') {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(p, &end, 10);
    if (*end == '\0' && errno == 0 && v > 0 && v <= INT_MAX) {
      config.period_ms = static_cast<int>(v);
    } else {
      std::fprintf(stderr,
                   "[rcf] warning: RCF_LIVE_PERIOD_MS=%s is not a positive "
                   "integer; sampling every %d ms\n",
                   p, config.period_ms);
    }
  }
  config.watchdog = watchdog_config_from_env();
  return config;
}

void live_autoconfigure_from_env() {
  const char* env = std::getenv("RCF_LIVE");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0) {
    return;
  }
  if (LiveMonitor::global().start(live_config_from_env(
          std::strcmp(env, "1") == 0 ? "rcf_live.jsonl" : env))) {
    static const bool stop_at_exit =
        std::atexit([] { LiveMonitor::global().stop(); }) == 0;
    (void)stop_at_exit;
  }
}

}  // namespace rcf::obs
