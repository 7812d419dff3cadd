#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "common/json.hpp"
#include "common/table.hpp"

namespace rcf::tools {

namespace {

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Fills `row`'s latency columns from its (non-empty) span durations:
/// the mean, the nearest-rank p50 / p95 / p99 (the ceil(p * n)-th smallest
/// duration) and the max.
void set_latency(PhaseRow& row, std::vector<double>& durs_us) {
  std::sort(durs_us.begin(), durs_us.end());
  const double n = static_cast<double>(durs_us.size());
  double total = 0.0;
  for (const double v : durs_us) {
    total += v;
  }
  row.mean_us = total / n;
  const auto at = [&durs_us, n](double p) {
    const double rank = std::clamp(std::ceil(p * n), 1.0, n);
    return durs_us[static_cast<std::size_t>(rank) - 1];
  };
  row.p50_us = at(0.5);
  row.p95_us = at(0.95);
  row.p99_us = at(0.99);
  row.max_us = durs_us.back();
}

void append_number(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

double nan_to_zero(double v) { return std::isnan(v) ? 0.0 : v; }

}  // namespace

bool load_chrome_trace(const std::string& path,
                       std::vector<ReportEvent>& events, std::string& error) {
  std::string text;
  if (!read_file(path, text, error)) {
    return false;
  }
  const auto doc = parse_json(text);
  if (!doc || !doc->is_object()) {
    error = path + ": not a JSON object";
    return false;
  }
  const JsonValue* trace_events = doc->find("traceEvents");
  if (trace_events == nullptr || !trace_events->is_array()) {
    error = path + ": missing traceEvents array";
    return false;
  }
  for (const JsonValue& ev : trace_events->array) {
    if (!ev.is_object()) {
      continue;
    }
    ReportEvent out;
    out.name = ev.string_or("name", "");
    out.rank = static_cast<int>(ev.number_or("pid", 0.0));
    out.ts_us = static_cast<std::int64_t>(ev.number_or("ts", 0.0));
    out.dur_us = static_cast<std::int64_t>(ev.number_or("dur", 0.0));
    if (const JsonValue* args = ev.find("args")) {
      out.words = args->number_or("words", 0.0);
      out.seq = static_cast<std::int64_t>(args->number_or("seq", -1.0));
    }
    events.push_back(std::move(out));
  }
  return true;
}

bool load_jsonl_trace(const std::string& path,
                      std::vector<ReportEvent>& events, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const auto doc = parse_json(line);
    if (!doc || !doc->is_object()) {
      error = path + ":" + std::to_string(line_no) + ": bad JSON line";
      return false;
    }
    ReportEvent out;
    out.name = doc->string_or("name", "");
    out.rank = static_cast<int>(doc->number_or("rank", 0.0));
    out.ts_us = static_cast<std::int64_t>(doc->number_or("ts_us", 0.0));
    out.dur_us = static_cast<std::int64_t>(doc->number_or("dur_us", 0.0));
    out.words = doc->number_or("words", 0.0);
    out.seq = static_cast<std::int64_t>(doc->number_or("seq", -1.0));
    events.push_back(std::move(out));
  }
  return true;
}

bool load_convergence(const std::string& path, std::vector<ConvRow>& rows,
                      std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  const double nan = std::nan("");
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const auto doc = parse_json(line);
    if (!doc || !doc->is_object()) {
      error = path + ":" + std::to_string(line_no) + ": bad JSON line";
      return false;
    }
    ConvRow row;
    row.iteration =
        static_cast<std::uint64_t>(doc->number_or("iteration", 0.0));
    row.objective = doc->number_or("objective", nan);
    row.grad_norm = doc->number_or("grad_norm", nan);
    row.support = doc->number_or("support", nan);
    row.step = doc->number_or("step", nan);
    rows.push_back(row);
  }
  return true;
}

bool build_report(const std::vector<ReportEvent>& events,
                  const std::string& metrics_json,
                  const std::vector<ConvRow>& convergence, Report& out,
                  std::string& error) {
  out = Report{};
  out.convergence = convergence;

  // -- per-phase critical path ---------------------------------------------
  // phase name -> rank -> (count, us, words)
  struct PhaseAccum {
    std::uint64_t count = 0;
    double us = 0.0;
    double words = 0.0;
  };
  std::map<std::string, std::map<int, PhaseAccum>> phases;
  std::map<std::string, std::vector<double>> durs_us;
  for (const ReportEvent& ev : events) {
    PhaseAccum& pa = phases[ev.name][ev.rank];
    ++pa.count;
    pa.us += static_cast<double>(ev.dur_us);
    pa.words += ev.words;
    durs_us[ev.name].push_back(static_cast<double>(ev.dur_us));
    if (ev.name == "allreduce") {
      ++out.allreduce_spans;
    }
  }
  for (const auto& [name, by_rank] : phases) {
    PhaseRow row;
    row.name = name;
    double critical_us = 0.0;
    double total_us = 0.0;
    for (const auto& [rank, pa] : by_rank) {
      row.count += pa.count;
      total_us += pa.us;
      row.words += pa.words;
      critical_us = std::max(critical_us, pa.us);
    }
    row.total_s = total_us * 1e-6;
    row.critical_s = critical_us * 1e-6;
    const double mean_rank_us =
        total_us / static_cast<double>(by_rank.size());
    row.mean_rank_s = mean_rank_us * 1e-6;
    row.imbalance = mean_rank_us == 0.0 ? 1.0 : critical_us / mean_rank_us;
    set_latency(row, durs_us[name]);
    out.phases.push_back(std::move(row));
  }
  std::sort(out.phases.begin(), out.phases.end(),
            [](const PhaseRow& a, const PhaseRow& b) {
              return a.critical_s > b.critical_s ||
                     (a.critical_s == b.critical_s && a.name < b.name);
            });

  // -- cross-rank merged timeline + critical path ---------------------------
  if (!events.empty()) {
    std::vector<obs::TimelineSpan> spans;
    spans.reserve(events.size());
    for (const ReportEvent& ev : events) {
      obs::TimelineSpan s;
      s.name = ev.name;
      s.rank = ev.rank;
      s.seq = ev.seq;
      s.start_us = ev.ts_us;
      s.dur_us = ev.dur_us;
      s.words = ev.words;
      spans.push_back(std::move(s));
    }
    const obs::Timeline timeline = obs::Timeline::build(spans);
    out.decomposition = timeline.rank_times();
    out.critpath = obs::critical_path(timeline);
  }

  // -- metrics file: resilience and perf.* counters, model.* gauges
  if (!metrics_json.empty()) {
    const auto doc = parse_json(metrics_json);
    if (!doc || !doc->is_object()) {
      error = "metrics file is not a JSON object";
      return false;
    }
    if (const JsonValue* counters = doc->find("counters");
        counters != nullptr && counters->is_object()) {
      // Resilience view: the retry/backoff/fault-injection counters the
      // fault layer maintains (see src/fault and dist/retry.hpp).  Zero
      // rows are dropped so clean runs keep a clean report.
      for (const auto& [name, value] : counters->members) {
        const auto ends_with = [&name](std::string_view suffix) {
          return name.size() >= suffix.size() &&
                 name.compare(name.size() - suffix.size(), suffix.size(),
                              suffix) == 0;
        };
        const bool resilience_counter =
            name == "comm.backoff_us" || name.rfind("fault.", 0) == 0 ||
            (name.rfind("comm.", 0) == 0 &&
             (ends_with(".retries") || ends_with(".faults_injected")));
        if (resilience_counter && value.is_number() && value.number != 0.0) {
          out.resilience.push_back(ResilienceRow{name, value.number});
        }
      }
      // Roofline view: perf.<label>.{cycles,instructions,llc_misses,
      // samples} counter groups from obs::PerfScope.  perf.unavailable.*
      // markers (structured no-op fallback) are skipped.
      std::map<std::string, RooflineRow> perf_rows;
      for (const auto& [name, value] : counters->members) {
        if (name.rfind("perf.", 0) != 0 || !value.is_number()) {
          continue;
        }
        const std::string rest = name.substr(5);
        const auto last_dot = rest.rfind('.');
        if (last_dot == std::string::npos ||
            rest.rfind("unavailable.", 0) == 0) {
          continue;
        }
        const std::string label = rest.substr(0, last_dot);
        const std::string field = rest.substr(last_dot + 1);
        RooflineRow& row = perf_rows[label];
        row.label = label;
        if (field == "cycles") row.cycles = value.number;
        else if (field == "instructions") row.instructions = value.number;
        else if (field == "llc_misses") row.llc_misses = value.number;
        else if (field == "samples") row.samples = value.number;
      }
      for (auto& [label, row] : perf_rows) {
        if (row.samples > 0.0) {
          out.roofline.push_back(std::move(row));
        }
      }
    }
    if (const JsonValue* gauges = doc->find("gauges");
        gauges != nullptr && gauges->is_object()) {
      // model.<label>.<quantity>.<kind> gauges are regrouped into
      // predicted-vs-measured rows.
      std::map<std::string, ModelRow> model_rows;
      for (const auto& [name, value] : gauges->members) {
        if (!value.is_number() || name.rfind("model.", 0) != 0) {
          continue;
        }
        const std::string rest = name.substr(6);
        const auto first_dot = rest.find('.');
        if (first_dot == std::string::npos) {
          continue;  // model.latency_err etc. (summary gauges)
        }
        const std::string label = rest.substr(0, first_dot);
        if (label == "residual") {
          continue;  // model.residual.* summary gauges, not a config row
        }
        const std::string field = rest.substr(first_dot + 1);
        ModelRow& row = model_rows[label];
        row.label = label;
        const double v = value.number;
        if (field == "latency.pred") row.latency_pred = v;
        else if (field == "latency.meas") row.latency_meas = v;
        else if (field == "latency_err") row.latency_err = v;
        else if (field == "bw.pred") row.bw_pred = v;
        else if (field == "bw.meas") row.bw_meas = v;
        else if (field == "bw_err") row.bw_err = v;
        else if (field == "flops.pred") row.flops_pred = v;
        else if (field == "flops.meas") row.flops_meas = v;
        else if (field == "flops_err") row.flops_err = v;
        else if (field == "rounds.pred") row.rounds_pred = v;
        else if (field == "rounds.meas") row.rounds_meas = v;
        else if (field == "seconds.pred") row.seconds_pred = v;
        else if (field == "seconds.meas") row.seconds_meas = v;
        else if (field == "comm_seconds.pred") row.comm_pred = v;
        else if (field == "comm_seconds.meas") row.comm_meas = v;
        else if (field == "comm_err") row.comm_err = v;
        else if (field == "seconds_err") row.seconds_err = v;
      }
      for (auto& [label, row] : model_rows) {
        out.model.push_back(std::move(row));
      }
    }
  }
  return true;
}

namespace {

// The per-phase table: critical-path totals, then the span-duration
// distribution (text and markdown render the same cells).
const std::vector<std::string> kPhaseHeader = {
    "phase",     "count",         "critical (s)", "mean/rank (s)",
    "imbalance", "total (s)",     "payload words", "mean (us)",
    "p50 (us)",  "p95 (us)",      "p99 (us)",     "max (us)"};

std::vector<std::string> phase_cells(const PhaseRow& p) {
  return {p.name,
          fmt_count(p.count),
          fmt_f(p.critical_s, 6),
          fmt_f(p.mean_rank_s, 6),
          fmt_f(p.imbalance, 3),
          fmt_f(p.total_s, 6),
          fmt_g(p.words, 4),
          fmt_f(p.mean_us, 1),
          fmt_f(p.p50_us, 0),
          fmt_f(p.p95_us, 0),
          fmt_f(p.p99_us, 0),
          fmt_f(p.max_us, 0)};
}

AsciiTable phase_table(const Report& r) {
  AsciiTable tbl(kPhaseHeader);
  for (const auto& p : r.phases) {
    tbl.add_row(phase_cells(p));
  }
  return tbl;
}

AsciiTable model_table(const Report& r) {
  AsciiTable tbl({"config", "rounds p/m", "L pred", "L meas", "L err",
                  "W pred", "W meas", "W err", "F pred", "F meas", "F err",
                  "Tc pred(s)", "Tc meas(s)", "Tc err"});
  for (const auto& m : r.model) {
    tbl.add_row({m.label,
                 fmt_g(m.rounds_pred, 3) + "/" + fmt_g(m.rounds_meas, 3),
                 fmt_g(m.latency_pred, 3), fmt_g(m.latency_meas, 3),
                 fmt_f(m.latency_err, 3), fmt_g(m.bw_pred, 3),
                 fmt_g(m.bw_meas, 3), fmt_f(m.bw_err, 3),
                 fmt_g(m.flops_pred, 3), fmt_g(m.flops_meas, 3),
                 fmt_f(m.flops_err, 3), fmt_e(m.comm_pred, 2),
                 fmt_e(m.comm_meas, 2), fmt_f(m.comm_err, 3)});
  }
  return tbl;
}

AsciiTable decomposition_table(const Report& r) {
  AsciiTable tbl({"rank", "compute (s)", "comm (s)", "wait (s)", "aux (s)",
                  "wait %"});
  for (const auto& rt : r.decomposition) {
    const double total = rt.total_s();
    tbl.add_row({std::to_string(rt.rank), fmt_f(rt.compute_s, 6),
                 fmt_f(rt.comm_s, 6), fmt_f(rt.wait_s, 6), fmt_f(rt.aux_s, 6),
                 fmt_f(total > 0.0 ? 100.0 * rt.wait_s / total : 0.0, 1)});
  }
  return tbl;
}

AsciiTable straggler_report_table(const Report& r) {
  AsciiTable tbl({"collective", "seq", "straggler rank", "imposed wait (s)",
                  "total wait (s)"});
  for (const auto& s : r.critpath.top_stragglers) {
    tbl.add_row({s.name, std::to_string(s.seq), std::to_string(s.rank),
                 fmt_f(s.wait_imposed_s, 6), fmt_f(s.wait_total_s, 6)});
  }
  return tbl;
}

AsciiTable roofline_table(const Report& r) {
  AsciiTable tbl({"kernel", "samples", "cycles", "instructions", "ipc",
                  "llc misses"});
  for (const auto& row : r.roofline) {
    tbl.add_row({row.label, fmt_g(row.samples, 4), fmt_g(row.cycles, 4),
                 fmt_g(row.instructions, 4), fmt_f(row.ipc(), 2),
                 fmt_g(row.llc_misses, 4)});
  }
  return tbl;
}

std::string critpath_summary(const Report& r) {
  const auto& cp = r.critpath;
  std::ostringstream out;
  out << "critical path: compute=" << fmt_f(cp.compute_s, 6)
      << "s comm=" << fmt_f(cp.comm_s, 6)
      << "s imposed wait=" << fmt_f(cp.wait_s, 6)
      << "s makespan=" << fmt_f(cp.makespan_s, 6)
      << "s coverage=" << fmt_f(100.0 * cp.coverage, 1) << "%\n";
  return out.str();
}

AsciiTable resilience_table(const Report& r) {
  AsciiTable tbl({"resilience counter", "value"});
  for (const auto& row : r.resilience) {
    tbl.add_row({row.name, fmt_g(row.value, 6)});
  }
  return tbl;
}

AsciiTable conv_table(const Report& r) {
  AsciiTable tbl({"iter", "objective", "grad norm", "support", "step"});
  // Bound the text rendering; the JSON format carries every row.
  const std::size_t n = r.convergence.size();
  const std::size_t head = n > 24 ? 12 : n;
  for (std::size_t i = 0; i < head; ++i) {
    const auto& c = r.convergence[i];
    tbl.add_row({std::to_string(c.iteration), fmt_g(c.objective, 6),
                 fmt_g(c.grad_norm, 4), fmt_g(nan_to_zero(c.support), 4),
                 fmt_g(c.step, 4)});
  }
  if (n > 24) {
    tbl.add_row({"...", "", "", "", ""});
    for (std::size_t i = n - 12; i < n; ++i) {
      const auto& c = r.convergence[i];
      tbl.add_row({std::to_string(c.iteration), fmt_g(c.objective, 6),
                   fmt_g(c.grad_norm, 4), fmt_g(nan_to_zero(c.support), 4),
                   fmt_g(c.step, 4)});
    }
  }
  return tbl;
}

// Markdown pipe-table from the same cells AsciiTable carries; AsciiTable
// has no cell access, so rebuild rows here via a tiny emitter.
class MarkdownTable {
 public:
  explicit MarkdownTable(std::vector<std::string> header)
      : header_(std::move(header)) {}
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  [[nodiscard]] std::string str() const {
    std::ostringstream out;
    out << "|";
    for (const auto& h : header_) {
      out << " " << h << " |";
    }
    out << "\n|";
    for (std::size_t i = 0; i < header_.size(); ++i) {
      out << " --- |";
    }
    out << "\n";
    for (const auto& row : rows_) {
      out << "|";
      for (const auto& cell : row) {
        out << " " << cell << " |";
      }
      out << "\n";
    }
    return out.str();
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace

std::string render_text(const Report& r) {
  std::ostringstream out;
  out << "== rcf-report ==\n\n";
  if (!r.phases.empty()) {
    out << "per-phase critical path (allreduce spans: "
        << r.allreduce_spans << ")\n"
        << phase_table(r).str() << "\n";
  }
  if (!r.decomposition.empty()) {
    out << "cross-rank timeline: compute / comm / wait decomposition\n"
        << decomposition_table(r).str() << "\n";
  }
  if (!r.critpath.segments.empty()) {
    out << critpath_summary(r)
        << obs::critpath_table(r.critpath) << "\n";
    if (!r.critpath.top_stragglers.empty()) {
      out << "top straggler collectives\n"
          << straggler_report_table(r).str() << "\n";
    }
  }
  if (!r.model.empty()) {
    out << "cost model: predicted vs measured "
           "(Tc = alpha_eff*L + beta*W vs traced allreduce-phase wall)\n"
        << model_table(r).str() << "\n";
  }
  if (!r.roofline.empty()) {
    out << "hardware counters (perf.* kernel samples)\n"
        << roofline_table(r).str() << "\n";
  }
  if (!r.resilience.empty()) {
    out << "resilience (retries / injected faults / backoff)\n"
        << resilience_table(r).str() << "\n";
  }
  if (!r.convergence.empty()) {
    out << "convergence trace (" << r.convergence.size() << " records)\n"
        << conv_table(r).str() << "\n";
  }
  return out.str();
}

std::string render_markdown(const Report& r) {
  std::ostringstream out;
  out << "# rcf-report\n\n";
  if (!r.phases.empty()) {
    MarkdownTable tbl(kPhaseHeader);
    for (const auto& p : r.phases) {
      tbl.add_row(phase_cells(p));
    }
    out << "## Per-phase critical path\n\n" << tbl.str() << "\n";
  }
  if (!r.decomposition.empty()) {
    MarkdownTable tbl({"rank", "compute (s)", "comm (s)", "wait (s)",
                       "aux (s)"});
    for (const auto& rt : r.decomposition) {
      tbl.add_row({std::to_string(rt.rank), fmt_f(rt.compute_s, 6),
                   fmt_f(rt.comm_s, 6), fmt_f(rt.wait_s, 6),
                   fmt_f(rt.aux_s, 6)});
    }
    out << "## Cross-rank timeline decomposition\n\n" << tbl.str() << "\n";
  }
  if (!r.critpath.segments.empty()) {
    out << "## Critical path\n\n" << critpath_summary(r) << "\n";
    MarkdownTable tbl({"segment", "seq", "rank", "compute (s)",
                       "collective (s)", "imposed wait (s)", "words"});
    for (const auto& s : r.critpath.segments) {
      tbl.add_row({s.name, std::to_string(s.seq),
                   std::to_string(s.critical_rank), fmt_f(s.compute_s, 6),
                   fmt_f(s.collective_s, 6), fmt_f(s.wait_imposed_s, 6),
                   fmt_g(s.words, 4)});
    }
    out << tbl.str() << "\n";
    if (!r.critpath.top_stragglers.empty()) {
      MarkdownTable stbl({"collective", "seq", "straggler rank",
                          "imposed wait (s)", "total wait (s)"});
      for (const auto& s : r.critpath.top_stragglers) {
        stbl.add_row({s.name, std::to_string(s.seq), std::to_string(s.rank),
                      fmt_f(s.wait_imposed_s, 6), fmt_f(s.wait_total_s, 6)});
      }
      out << "### Top straggler collectives\n\n" << stbl.str() << "\n";
    }
  }
  if (!r.model.empty()) {
    MarkdownTable tbl({"config", "rounds p/m", "L pred", "L meas", "L err",
                       "W pred", "W meas", "W err", "F pred", "F meas",
                       "F err", "Tc pred (s)", "Tc meas (s)", "Tc err"});
    for (const auto& m : r.model) {
      tbl.add_row({m.label,
                   fmt_g(m.rounds_pred, 3) + "/" + fmt_g(m.rounds_meas, 3),
                   fmt_g(m.latency_pred, 3), fmt_g(m.latency_meas, 3),
                   fmt_f(m.latency_err, 3), fmt_g(m.bw_pred, 3),
                   fmt_g(m.bw_meas, 3), fmt_f(m.bw_err, 3),
                   fmt_g(m.flops_pred, 3), fmt_g(m.flops_meas, 3),
                   fmt_f(m.flops_err, 3), fmt_e(m.comm_pred, 2),
                   fmt_e(m.comm_meas, 2), fmt_f(m.comm_err, 3)});
    }
    out << "## Cost model: predicted vs measured\n\n" << tbl.str() << "\n";
  }
  if (!r.roofline.empty()) {
    MarkdownTable tbl({"kernel", "samples", "cycles", "instructions", "ipc",
                       "llc misses"});
    for (const auto& row : r.roofline) {
      tbl.add_row({row.label, fmt_g(row.samples, 4), fmt_g(row.cycles, 4),
                   fmt_g(row.instructions, 4), fmt_f(row.ipc(), 2),
                   fmt_g(row.llc_misses, 4)});
    }
    out << "## Hardware counters\n\n" << tbl.str() << "\n";
  }
  if (!r.resilience.empty()) {
    MarkdownTable tbl({"resilience counter", "value"});
    for (const auto& row : r.resilience) {
      tbl.add_row({row.name, fmt_g(row.value, 6)});
    }
    out << "## Resilience\n\n" << tbl.str() << "\n";
  }
  if (!r.convergence.empty()) {
    MarkdownTable tbl({"iter", "objective", "grad norm", "support", "step"});
    for (const auto& c : r.convergence) {
      tbl.add_row({std::to_string(c.iteration), fmt_g(c.objective, 6),
                   fmt_g(c.grad_norm, 4), fmt_g(nan_to_zero(c.support), 4),
                   fmt_g(c.step, 4)});
    }
    out << "## Convergence trace\n\n" << tbl.str() << "\n";
  }
  return out.str();
}

std::string render_json(const Report& r) {
  std::string out;
  out += "{\"ranks\":[";
  for (std::size_t i = 0; i < r.decomposition.size(); ++i) {
    const auto& rt = r.decomposition[i];
    if (i > 0) out += ",";
    out += "{\"rank\":" + std::to_string(rt.rank);
    out += ",\"compute_s\":";
    append_number(out, rt.compute_s);
    out += ",\"comm_s\":";
    append_number(out, rt.comm_s);
    out += ",\"wait_s\":";
    append_number(out, rt.wait_s);
    out += ",\"aux_s\":";
    append_number(out, rt.aux_s);
    out += ",\"spans\":" + std::to_string(rt.spans) + "}";
  }
  out += "],\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const auto& p = r.phases[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"";
    json_escape_to(p.name, out);
    out += "\",\"count\":" + std::to_string(p.count);
    out += ",\"critical_s\":";
    append_number(out, p.critical_s);
    out += ",\"mean_rank_s\":";
    append_number(out, p.mean_rank_s);
    out += ",\"imbalance\":";
    append_number(out, p.imbalance);
    out += ",\"total_s\":";
    append_number(out, p.total_s);
    out += ",\"words\":";
    append_number(out, p.words);
    out += ",\"mean_us\":";
    append_number(out, p.mean_us);
    out += ",\"p50_us\":";
    append_number(out, p.p50_us);
    out += ",\"p95_us\":";
    append_number(out, p.p95_us);
    out += ",\"p99_us\":";
    append_number(out, p.p99_us);
    out += ",\"max_us\":";
    append_number(out, p.max_us);
    out += "}";
  }
  out += "],\"allreduce_spans\":" + std::to_string(r.allreduce_spans);
  out += ",\"model\":[";
  for (std::size_t i = 0; i < r.model.size(); ++i) {
    const auto& m = r.model[i];
    if (i > 0) out += ",";
    out += "{\"label\":\"";
    json_escape_to(m.label, out);
    out += "\"";
    const auto field = [&out](const char* key, double v) {
      out += ",\"";
      out += key;
      out += "\":";
      append_number(out, v);
    };
    field("latency_pred", m.latency_pred);
    field("latency_meas", m.latency_meas);
    field("latency_err", m.latency_err);
    field("bw_pred", m.bw_pred);
    field("bw_meas", m.bw_meas);
    field("bw_err", m.bw_err);
    field("flops_pred", m.flops_pred);
    field("flops_meas", m.flops_meas);
    field("flops_err", m.flops_err);
    field("rounds_pred", m.rounds_pred);
    field("rounds_meas", m.rounds_meas);
    field("seconds_pred", m.seconds_pred);
    field("seconds_meas", m.seconds_meas);
    field("comm_pred", m.comm_pred);
    field("comm_meas", m.comm_meas);
    field("comm_err", m.comm_err);
    field("seconds_err", m.seconds_err);
    out += "}";
  }
  out += "],\"critical_path\":{\"compute_s\":";
  append_number(out, r.critpath.compute_s);
  out += ",\"comm_s\":";
  append_number(out, r.critpath.comm_s);
  out += ",\"wait_s\":";
  append_number(out, r.critpath.wait_s);
  out += ",\"makespan_s\":";
  append_number(out, r.critpath.makespan_s);
  out += ",\"coverage\":";
  append_number(out, r.critpath.coverage);
  out += ",\"segments\":[";
  for (std::size_t i = 0; i < r.critpath.segments.size(); ++i) {
    const auto& s = r.critpath.segments[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"";
    json_escape_to(s.name, out);
    out += "\",\"seq\":" + std::to_string(s.seq);
    out += ",\"rank\":" + std::to_string(s.critical_rank);
    out += ",\"compute_s\":";
    append_number(out, s.compute_s);
    out += ",\"collective_s\":";
    append_number(out, s.collective_s);
    out += ",\"wait_imposed_s\":";
    append_number(out, s.wait_imposed_s);
    out += ",\"words\":";
    append_number(out, s.words);
    out += "}";
  }
  out += "],\"top_stragglers\":[";
  for (std::size_t i = 0; i < r.critpath.top_stragglers.size(); ++i) {
    const auto& s = r.critpath.top_stragglers[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"";
    json_escape_to(s.name, out);
    out += "\",\"seq\":" + std::to_string(s.seq);
    out += ",\"rank\":" + std::to_string(s.rank);
    out += ",\"wait_imposed_s\":";
    append_number(out, s.wait_imposed_s);
    out += ",\"wait_total_s\":";
    append_number(out, s.wait_total_s);
    out += "}";
  }
  out += "]},\"roofline\":[";
  for (std::size_t i = 0; i < r.roofline.size(); ++i) {
    const auto& row = r.roofline[i];
    if (i > 0) out += ",";
    out += "{\"label\":\"";
    json_escape_to(row.label, out);
    out += "\",\"cycles\":";
    append_number(out, row.cycles);
    out += ",\"instructions\":";
    append_number(out, row.instructions);
    out += ",\"llc_misses\":";
    append_number(out, row.llc_misses);
    out += ",\"samples\":";
    append_number(out, row.samples);
    out += ",\"ipc\":";
    append_number(out, row.ipc());
    out += "}";
  }
  out += "],\"resilience\":{";
  for (std::size_t i = 0; i < r.resilience.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    json_escape_to(r.resilience[i].name, out);
    out += "\":";
    append_number(out, r.resilience[i].value);
  }
  out += "},\"convergence\":[";
  for (std::size_t i = 0; i < r.convergence.size(); ++i) {
    const auto& c = r.convergence[i];
    if (i > 0) out += ",";
    out += "{\"iteration\":" + std::to_string(c.iteration);
    out += ",\"objective\":";
    append_number(out, c.objective);
    out += ",\"grad_norm\":";
    append_number(out, c.grad_norm);
    out += ",\"support\":";
    append_number(out, c.support);
    out += ",\"step\":";
    append_number(out, c.step);
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace rcf::tools
