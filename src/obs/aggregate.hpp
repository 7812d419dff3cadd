// Cross-rank metric aggregation.
//
// At the end of a distributed solve every rank holds a local
// MetricsRegistry (per-phase counters/gauges recorded from its own
// schedule plus its communicator endpoint's CommStats).  aggregate()
// combines those registries across ranks with a fixed, rank-independent
// reduction order so the result is deterministic:
//
// Counters and gauges are reduced into {min, max, sum, mean} views plus a
// derived imbalance factor max/mean (the paper's per-phase load-balance
// signal; 1.0 means perfectly balanced).
//
// Determinism contract (see DESIGN.md): instruments are enumerated in
// sorted-name order and packed into flat buffers, so the reduction order
// is a function of the metric names only -- never of rank arrival order
// or pool width.  Schedule-shape metrics (counts, payload words) are
// bit-identical across runs and pool widths; time-valued metrics get the
// same fixed reduction order but of course carry run-to-run jitter.
//
// The collectives issued here run under Communicator::AuxScope, so
// aggregation does not perturb the CommStats counters or "allreduce" span
// counts it is reporting on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace rcf::dist {
class Communicator;
struct CommStats;
}  // namespace rcf::dist

namespace rcf::obs {

struct PhaseStat;

/// Cross-rank view of one counter or gauge.
struct AggregatedMetric {
  std::string name;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean = 0.0;
  /// max/mean (1.0 when mean == 0): >1 means some rank carries more of
  /// this metric than the average -- the per-phase load-imbalance factor.
  double imbalance = 1.0;
};

/// Result of aggregate(): every instrument of the per-rank registries,
/// reduced across the communicator's world.
struct FleetMetrics {
  int ranks = 0;
  std::vector<AggregatedMetric> counters;   ///< sorted by name
  std::vector<AggregatedMetric> gauges;     ///< sorted by name

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty();
  }

  /// Looks up a counter or gauge by name (counters first); nullptr if
  /// absent.
  [[nodiscard]] const AggregatedMetric* find(std::string_view name) const;

  /// Human-readable min/mean/max/imbalance table.
  [[nodiscard]] std::string table() const;
};

/// Reduces `local` across all ranks of `comm` (collective: every rank of
/// the communicator must call it with registries holding the *same*
/// instrument names -- checked, RCF_CHECK fires on divergence).  Every
/// rank receives the same FleetMetrics.  Runs under AuxScope; see header
/// comment for the determinism contract.
FleetMetrics aggregate(MetricsRegistry& local, dist::Communicator& comm);

/// Publishes a fleet view into `registry` as gauges named
/// "agg.<metric>.{min,max,sum,mean,imbalance}", so aggregated results ride
/// the normal metrics JSON export.
void publish(const FleetMetrics& fleet, MetricsRegistry& registry);

/// Records one rank's solve-local observations into `registry`:
/// per-phase "phase.<name>.count" counters and "phase.<name>.seconds" /
/// "phase.<name>.words" gauges from `phases`, plus (when non-null) the
/// communicator endpoint's CommStats as "comm.*" counters.  This is the
/// canonical per-rank registry layout aggregate() consumes.
void record_solve_metrics(MetricsRegistry& registry,
                          const std::vector<PhaseStat>& phases,
                          const dist::CommStats* comm_stats);

}  // namespace rcf::obs
