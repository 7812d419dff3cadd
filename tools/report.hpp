// rcf-report: offline analyzer for the trace / metrics / convergence files
// a traced solve writes (--trace-out / --trace-jsonl / --metrics-out /
// --conv-out, or the RCF_TRACE* environment).
//
// The analyzer is file-driven only -- it never links the solver -- so it
// can be pointed at artifacts from any run (including CI uploads).  It
// reconstructs:
//
//  * the per-phase critical path (slowest rank per span name) with its
//    load imbalance (slowest-rank total over mean-rank total) and each
//    span name's exact latency distribution: count, mean, and the
//    nearest-rank p50 / p95 / p99 and max of the raw span durations (the
//    allreduce_wait row is the rendezvous-skew distribution),
//  * the cross-rank merged timeline: compute / comm / wait / aux
//    decomposition per rank and the collective-by-collective critical
//    path with straggler attribution (obs::Timeline + obs::critical_path,
//    aligned on the collective sequence numbers the communicator stamps
//    on spans),
//  * hardware-counter roofline rows (perf.<label>.* counters emitted by
//    obs::PerfScope under RCF_PERFCTR / bench_kernels --counters),
//  * the predicted-vs-measured cost-model table (model.* gauges emitted by
//    obs::CostLedger),
//  * the convergence trace (--conv-out JSONL).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/timeline.hpp"

namespace rcf::tools {

/// One span loaded from a Chrome trace or JSONL file.
struct ReportEvent {
  std::string name;
  int rank = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  double words = 0.0;
  std::int64_t seq = -1;  ///< collective sequence number (-1 = unstamped)
};

/// Per-span-name totals; critical_s is the slowest single rank's total,
/// i.e. the phase's contribution to the critical path of the solve, and
/// imbalance is critical_s / mean_rank_s (1 when the mean is 0; the mean
/// is over the ranks that recorded the name), the phase's load-balance
/// factor.  The *_us fields are the exact distribution of the name's span
/// durations
/// over every rank; each quantile is the nearest-rank (ceil(p * count)-th
/// smallest) duration, so it is a measured span, never an interpolation.
struct PhaseRow {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double critical_s = 0.0;
  double mean_rank_s = 0.0;
  double imbalance = 1.0;
  double words = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// One predicted-vs-measured row reconstructed from model.<label>.* gauges.
struct ModelRow {
  std::string label;
  double latency_pred = 0.0, latency_meas = 0.0, latency_err = 0.0;
  double bw_pred = 0.0, bw_meas = 0.0, bw_err = 0.0;
  double flops_pred = 0.0, flops_meas = 0.0, flops_err = 0.0;
  double rounds_pred = 0.0, rounds_meas = 0.0;
  double seconds_pred = 0.0, seconds_meas = 0.0;
  double comm_pred = 0.0, comm_meas = 0.0;  ///< alpha-beta seconds
  double comm_err = 0.0, seconds_err = 0.0;
};

/// One hardware-counter sample group reconstructed from perf.<label>.*
/// counters (obs::PerfScope output).
struct RooflineRow {
  std::string label;
  double cycles = 0.0;
  double instructions = 0.0;
  double llc_misses = 0.0;
  double samples = 0.0;
  [[nodiscard]] double ipc() const {
    return cycles > 0.0 ? instructions / cycles : 0.0;
  }
};

/// One convergence sample from the --conv-out JSONL (NaN = absent).
struct ConvRow {
  std::uint64_t iteration = 0;
  double objective = 0.0;
  double grad_norm = 0.0;
  double support = 0.0;
  double step = 0.0;
};

/// One resilience counter from the metrics JSON (comm.retries,
/// comm.faults_injected, comm.backoff_us, fault.*): how much fault
/// absorption the run performed.  All-zero rows are omitted, so the
/// section only appears for runs that actually retried or were injected.
struct ResilienceRow {
  std::string name;
  double value = 0.0;
};

struct Report {
  std::vector<PhaseRow> phases;        ///< sorted by critical_s, descending
  std::vector<ModelRow> model;
  std::vector<ResilienceRow> resilience;  ///< nonzero retry/fault counters
  std::vector<RooflineRow> roofline;   ///< perf.<label>.* counter groups
  std::vector<ConvRow> convergence;
  std::uint64_t allreduce_spans = 0;   ///< total "allreduce" span count
  /// Cross-rank merged timeline decomposition (compute / comm / wait / aux
  /// seconds per rank; the JSON "ranks" rows) and the collective-by-
  /// collective critical path with straggler attribution; empty when no
  /// trace was loaded.
  std::vector<obs::RankTimes> decomposition;
  obs::CriticalPath critpath;
};

/// Loaders.  Each returns false and fills `error` on parse/IO failure;
/// loading is additive (events append).
bool load_chrome_trace(const std::string& path,
                       std::vector<ReportEvent>& events, std::string& error);
bool load_jsonl_trace(const std::string& path,
                      std::vector<ReportEvent>& events, std::string& error);
bool load_convergence(const std::string& path, std::vector<ConvRow>& rows,
                      std::string& error);

/// Builds the report from loaded inputs.  `metrics_json` is the raw
/// metrics file contents ("" = none; parse errors reported via `error`
/// with a false return).
bool build_report(const std::vector<ReportEvent>& events,
                  const std::string& metrics_json,
                  const std::vector<ConvRow>& convergence, Report& out,
                  std::string& error);

/// Renderers.
[[nodiscard]] std::string render_text(const Report& report);
[[nodiscard]] std::string render_markdown(const Report& report);
[[nodiscard]] std::string render_json(const Report& report);

}  // namespace rcf::tools
