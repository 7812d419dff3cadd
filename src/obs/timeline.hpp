// Cross-rank timeline: merges the per-rank span streams a traced solve
// produces (TraceSession snapshots or trace files re-loaded by rcf-report)
// into one aligned view.  classify_span is also the live monitor's
// occupancy classifier, so the live stream and the report agree.
//
// Alignment key: the per-rank engine-space collective sequence number the
// comm backends stamp on every non-aux collective span (TelemetryEvent::seq;
// the same per-endpoint counting scheme check::SequenceTracker fingerprints
// collectives with, so a trace that passes the contract checker is aligned
// by construction).  Spans without a sequence number (older traces,
// modeled single-rank spans) fall back to per-rank arrival order over the
// collective-category spans, which the SPMD schedule makes equivalent.
//
// The merge produces:
//  * a per-rank compute / communication / wait / aux decomposition (wait
//    spans nest inside their collective span, so "comm" here is the
//    data-movement remainder after the nested waits are subtracted; the
//    contract checker's wrapper spans count in no category), and
//  * one CollectiveInstance per aligned collective with per-rank arrival
//    times and straggler attribution (the rank that arrived last and made
//    every other rank wait).
//
// Everything here is plain data + O(n log n) sorting -- no solver types --
// so tools/rcf-report can link it without pulling in the engine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rcf::obs {

struct TelemetryEvent;

/// One span in merge-ready form (string-named so offline loaders can feed
/// spans parsed from trace files).
struct TimelineSpan {
  std::string name;
  int rank = 0;
  std::int64_t seq = -1;      ///< collective sequence number; -1 = none
  std::int64_t start_us = 0;  ///< microseconds since (per-process) epoch
  std::int64_t dur_us = 0;
  double words = 0.0;

  [[nodiscard]] std::int64_t end_us() const { return start_us + dur_us; }
};

/// How a span contributes to the per-rank decomposition.
enum class SpanCategory {
  kCompute,  ///< anything not recognized below
  kComm,     ///< allreduce (data movement, net of its nested waits)
  kWait,     ///< allreduce_wait / reduce_wait / contract_wait (idling)
  kAux,      ///< aux_collective / aux_wait (the checker's epoch exchange)
  /// check.contract / check.epoch: contract-checker wrappers.  Their time
  /// is already counted through the spans around or inside them (a
  /// collective's span, its contract_wait, the epoch's aux_collective), so
  /// they add to no category.
  kChecker,
};
[[nodiscard]] SpanCategory classify_span(std::string_view name);

/// True for the collective spans the merge aligns across ranks (the kComm
/// spans).
[[nodiscard]] bool is_aligned_collective(std::string_view name);

/// Per-rank time decomposition.  Wait spans nest inside collective spans,
/// so comm_s already has wait_s subtracted (clamped at zero).  On a
/// blocking run without nested compute spans the four parts sum to at most
/// the rank's span window, last_us - first_us.
struct RankTimes {
  int rank = 0;
  double compute_s = 0.0;
  double comm_s = 0.0;  ///< collective time net of nested waits
  double wait_s = 0.0;  ///< rendezvous idling (contract + publish + reduce)
  double aux_s = 0.0;
  std::uint64_t spans = 0;
  std::int64_t first_us = 0;  ///< earliest span start on this rank
  std::int64_t last_us = 0;   ///< latest span end on this rank

  [[nodiscard]] double total_s() const {
    return compute_s + comm_s + wait_s + aux_s;
  }
};

/// One collective aligned across ranks.
struct CollectiveInstance {
  std::string name;
  std::int64_t seq = -1;  ///< alignment key (ordinal when unstamped)

  struct RankEntry {
    int rank = 0;
    bool present = false;
    std::int64_t start_us = 0;    ///< collective span start
    std::int64_t end_us = 0;      ///< collective span end
    std::int64_t arrival_us = 0;  ///< start of the earliest publish wait
    std::int64_t wait_us = 0;     ///< nested publish-wait durations, summed
  };
  std::vector<RankEntry> ranks;  ///< index = position in Timeline::ranks()

  double words = 0.0;          ///< per-rank payload (max across ranks)
  int straggler_rank = -1;     ///< rank that arrived last (-1 = no skew info)
  std::int64_t last_arrival_us = 0;
  std::int64_t wait_imposed_us = 0;  ///< max - min wait: skew-attributable idling
  std::int64_t wait_total_us = 0;    ///< summed wait across ranks

  [[nodiscard]] std::int64_t end_max_us() const;
};

/// The merged view.  Build once from spans; all accessors are O(1).
class Timeline {
 public:
  /// Merges `spans` (any order).  Spans from different ranks must share a
  /// time epoch -- true for live snapshots and for per-rank files written
  /// by one traced process (the %r splitting writes one epoch).
  [[nodiscard]] static Timeline build(std::vector<TimelineSpan> spans);

  [[nodiscard]] const std::vector<int>& ranks() const { return ranks_; }
  [[nodiscard]] const std::vector<RankTimes>& rank_times() const {
    return rank_times_;
  }
  /// Aligned collectives in schedule order.
  [[nodiscard]] const std::vector<CollectiveInstance>& collectives() const {
    return collectives_;
  }
  [[nodiscard]] std::int64_t start_us() const { return start_us_; }
  [[nodiscard]] std::int64_t end_us() const { return end_us_; }
  [[nodiscard]] double makespan_s() const {
    return static_cast<double>(end_us_ - start_us_) * 1e-6;
  }
  [[nodiscard]] bool empty() const { return rank_times_.empty(); }

  /// Index into ranks()/rank_times() for a rank id; -1 if absent.
  [[nodiscard]] int rank_index(int rank) const;

 private:
  std::vector<int> ranks_;
  std::vector<RankTimes> rank_times_;
  std::vector<CollectiveInstance> collectives_;
  std::int64_t start_us_ = 0;
  std::int64_t end_us_ = 0;
};

/// Converts a TraceSession snapshot (every span kept).
[[nodiscard]] std::vector<TimelineSpan> to_timeline_spans(
    const std::vector<TelemetryEvent>& events);

}  // namespace rcf::obs
