// The traced run: per-layer metrics of one workload.
//
// It times the workload's solve untraced and with obs::TraceSession on,
// then replays each src/ layer's public functions from the benchmark's own
// code at the exact shapes the workload runs (rank 0's data::Partition
// block, the same Rng(seed, n) index streams, the same payloads and P).
// Per-call times times the solver's exact call counts (SolveResult::
// comm_stats and the always-maintained SolveResult::phases counts) give
// seconds per solve along one rank's schedule; their sum over the untraced
// solve_s.p50 is core.coverage.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Runs the traced measurement for about `seconds` of solves and writes the
/// benchmark's spans to `spans_out` (skipped when empty).
[[nodiscard]] RunOutcome run_traced(const WorkloadSpec& spec,
                                    std::uint64_t seed, double seconds,
                                    const std::string& spans_out);

}  // namespace perfbench
