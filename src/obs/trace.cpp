#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"

namespace rcf::obs {

namespace {

void append_event_json(const TelemetryEvent& ev, bool chrome,
                       std::string& out) {
  out += "{\"name\":\"";
  json_escape_to(ev.name, out);
  out += "\"";
  char buf[160];
  if (chrome) {
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%lld,"
                  "\"dur\":%lld",
                  ev.rank, ev.tid, static_cast<long long>(ev.start_us),
                  static_cast<long long>(ev.dur_us));
    out += buf;
    if (ev.words != 0.0 || ev.seq >= 0) {
      out += ",\"args\":{";
      bool first = true;
      if (ev.words != 0.0) {
        std::snprintf(buf, sizeof(buf), "\"words\":%.17g", ev.words);
        out += buf;
        first = false;
      }
      if (ev.seq >= 0) {
        std::snprintf(buf, sizeof(buf), "%s\"seq\":%lld", first ? "" : ",",
                      static_cast<long long>(ev.seq));
        out += buf;
      }
      out += "}";
    }
  } else {
    std::snprintf(buf, sizeof(buf),
                  ",\"rank\":%d,\"tid\":%u,\"ts_us\":%lld,\"dur_us\":%lld,"
                  "\"words\":%.17g",
                  ev.rank, ev.tid, static_cast<long long>(ev.start_us),
                  static_cast<long long>(ev.dur_us), ev.words);
    out += buf;
    if (ev.seq >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"seq\":%lld",
                    static_cast<long long>(ev.seq));
      out += buf;
    }
  }
  out += "}";
}

void append_chrome_body(const std::vector<TelemetryEvent>& events,
                        std::string& body) {
  body += "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      body += ",\n";
    }
    append_event_json(events[i], /*chrome=*/true, body);
  }
  body += "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace

std::string expand_rank_path(const std::string& path, int rank) {
  std::string out;
  out.reserve(path.size() + 4);
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '%' && i + 1 < path.size() && path[i + 1] == 'r') {
      out += std::to_string(rank);
      ++i;
    } else {
      out += path[i];
    }
  }
  return out;
}

const PhaseStat* find_phase(const PhaseSummary& summary,
                            std::string_view name) {
  for (const auto& stat : summary) {
    if (stat.name == name) {
      return &stat;
    }
  }
  return nullptr;
}

void append_phase(PhaseSummary& summary, const char* name,
                  const PhaseAgg& agg) {
  if (agg.count == 0) {
    return;
  }
  summary.push_back(PhaseStat{name, agg.count,
                              static_cast<double>(agg.us) * 1e-6, agg.words});
}

std::string phase_table(const PhaseSummary& summary) {
  std::ostringstream out;
  out << "phase            count       seconds   payload words\n";
  char line[128];
  for (const auto& stat : summary) {
    std::snprintf(line, sizeof(line), "%-14s %8llu %13.6f %15.0f\n",
                  stat.name.c_str(),
                  static_cast<unsigned long long>(stat.count), stat.seconds,
                  stat.payload_words);
    out << line;
  }
  return out.str();
}

TraceSession::TraceSession() {
  TraceConfig env_config;
  if (const char* p = std::getenv("RCF_TRACE"); p != nullptr && *p != '\0') {
    env_config.trace_out = std::string(p) == "1" ? "rcf_trace.json" : p;
  }
  if (const char* p = std::getenv("RCF_TRACE_JSONL");
      p != nullptr && *p != '\0') {
    env_config.jsonl_out = p;
  }
  if (const char* p = std::getenv("RCF_METRICS"); p != nullptr && *p != '\0') {
    env_config.metrics_out = p;
  }
  if (!env_config.trace_out.empty() || !env_config.jsonl_out.empty() ||
      !env_config.metrics_out.empty()) {
    start(env_config);
    std::atexit([] { TraceSession::global().write_outputs(); });
  }
  live_autoconfigure_from_env();
}

TraceSession& TraceSession::global() {
  static TraceSession* session = new TraceSession();
  return *session;
}

namespace {

// Touch the session at program start: TraceScope's fast path now tests
// only the packed gate word, so the RCF_TRACE / RCF_LIVE env autostart
// (which lives in the session constructor) must not depend on some code
// path calling global() first.
const bool g_env_autostart = (TraceSession::global(), true);

}  // namespace

void TraceSession::start(TraceConfig config) {
  clear_trace_events();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config_ = std::move(config);
  }
  detail::set_gate_bit(detail::kGateTrace, true);
}

void TraceSession::stop() { detail::set_gate_bit(detail::kGateTrace, false); }

std::vector<TelemetryEvent> TraceSession::snapshot() { return trace_events(); }

void TraceSession::clear() { clear_trace_events(); }

std::uint64_t TraceSession::count_spans(std::string_view name) {
  std::uint64_t n = 0;
  for (const auto& ev : snapshot()) {
    if (name == ev.name) {
      ++n;
    }
  }
  return n;
}

void TraceSession::write_chrome_trace(std::ostream& out) {
  const auto events = snapshot();
  std::string body;
  body.reserve(events.size() * 96 + 64);
  append_chrome_body(events, body);
  out << body;
}

void TraceSession::write_jsonl(std::ostream& out) {
  std::string line;
  for (const auto& ev : snapshot()) {
    line.clear();
    append_event_json(ev, /*chrome=*/false, line);
    line += "\n";
    out << line;
  }
}

bool TraceSession::write_trace_file(
    const std::string& path, const std::vector<TelemetryEvent>& events,
    bool chrome) {
  const bool per_rank = path.find("%r") != std::string::npos;
  std::vector<int> ranks{0};
  if (per_rank) {
    ranks.clear();
    for (const auto& ev : events) {
      if (std::find(ranks.begin(), ranks.end(), ev.rank) == ranks.end()) {
        ranks.push_back(ev.rank);
      }
    }
    if (ranks.empty()) {
      ranks.push_back(0);  // still produce the (empty) rank-0 file
    }
  }
  bool ok = true;
  for (const int rank : ranks) {
    std::ofstream out(per_rank ? expand_rank_path(path, rank) : path);
    if (!out) {
      ok = false;
      continue;
    }
    std::string body;
    if (chrome) {
      if (per_rank) {
        std::vector<TelemetryEvent> mine;
        for (const auto& ev : events) {
          if (ev.rank == rank) {
            mine.push_back(ev);
          }
        }
        append_chrome_body(mine, body);
      } else {
        append_chrome_body(events, body);
      }
    } else {
      for (const auto& ev : events) {
        if (per_rank && ev.rank != rank) {
          continue;
        }
        append_event_json(ev, /*chrome=*/false, body);
        body += "\n";
      }
    }
    out << body;
    ok = static_cast<bool>(out) && ok;
  }
  return ok;
}

bool TraceSession::write_outputs() {
  TraceConfig config;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config = config_;
  }
  const std::vector<TelemetryEvent> events = snapshot();
  // Warn once when a multi-rank trace goes to a single shared file: the
  // ranks interleave in one stream, and a second process writing the same
  // path would clobber it.  `%r` in the path switches to per-rank files.
  const bool has_placeholder =
      (config.trace_out.empty() ||
       config.trace_out.find("%r") != std::string::npos) &&
      (config.jsonl_out.empty() ||
       config.jsonl_out.find("%r") != std::string::npos);
  if (!has_placeholder &&
      (!config.trace_out.empty() || !config.jsonl_out.empty())) {
    int first_rank = 0;
    bool multi_rank = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i == 0) {
        first_rank = events[i].rank;
      } else if (events[i].rank != first_rank) {
        multi_rank = true;
        break;
      }
    }
    if (multi_rank && !warned_shared_path_.exchange(true)) {
      std::fprintf(stderr,
                   "[rcf] warning: multi-rank trace written to a single "
                   "file; use a %%r rank placeholder in the trace path "
                   "(e.g. trace.%%r.json) for per-rank files\n");
    }
  }
  bool ok = true;
  if (!config.trace_out.empty()) {
    ok = write_trace_file(config.trace_out, events, /*chrome=*/true) && ok;
  }
  if (!config.jsonl_out.empty()) {
    ok = write_trace_file(config.jsonl_out, events, /*chrome=*/false) && ok;
  }
  if (!config.metrics_out.empty()) {
    // Metrics are process-global (one registry, not per rank): a stray
    // placeholder expands to rank 0 rather than fanning out.
    ok = MetricsRegistry::global().write(
             expand_rank_path(config.metrics_out, 0)) &&
         ok;
  }
  return ok;
}

ScopedSession::ScopedSession(std::string trace_out, std::string jsonl_out,
                             std::string metrics_out, std::string live_out) {
  if (!live_out.empty()) {
    live_active_ =
        LiveMonitor::global().start(live_config_from_env(std::move(live_out)));
  }
  if (trace_out.empty() && jsonl_out.empty() && metrics_out.empty()) {
    return;
  }
  TraceSession::global().start(TraceConfig{
      std::move(trace_out), std::move(jsonl_out), std::move(metrics_out)});
  active_ = true;
}

ScopedSession::~ScopedSession() {
  if (live_active_) {
    LiveMonitor::global().stop();
  }
  if (!active_) {
    return;
  }
  auto& session = TraceSession::global();
  session.stop();
  if (!session.write_outputs()) {
    std::fprintf(stderr, "[rcf] warning: could not write trace outputs\n");
  }
}

void TraceScope::open(std::uint32_t gate, const char* name, double words,
                      std::int64_t seq) {
  sinks_ = static_cast<std::uint8_t>(gate);
  name_ = name;
  words_ = words;
  seq_ = seq;
  start_us_ = now_us();
  if ((gate & detail::kGateLive) != 0 && seq >= 0) {
    // Collectives announce themselves on entry so the monitor can age
    // in-flight operations (a hung allreduce is visible while stuck).
    telemetry_emit({.kind = TelemetryKind::kBegin,
                    .sinks = detail::kGateLive,
                    .name = name,
                    .start_us = start_us_,
                    .seq = seq,
                    .words = words});
  }
}

void TraceScope::close() {
  telemetry_emit({.kind = TelemetryKind::kSpan,
                  .sinks = sinks_,
                  .name = name_,
                  .start_us = start_us_,
                  .dur_us = now_us() - start_us_,
                  .seq = seq_,
                  .words = words_});
}

}  // namespace rcf::obs
