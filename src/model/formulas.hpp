// Closed-form cost formulas and parameter bounds from the paper.
//
//  * Table 1   -- latency / flop / bandwidth costs of SFISTA and RC-SFISTA.
//  * Eq. (24)  -- total modeled runtime of RC-SFISTA.
//  * Eq. (25)  -- k upper bound from latency vs bandwidth:  k <= alpha/(beta d^2).
//  * Eq. (26)  -- k upper bound from latency vs flops.
//  * Eq. (27)  -- combined k*S bound for very sparse data.
//  * Eq. (28)  -- S upper bound when k is at the Eq. 25 bound.
#pragma once

#include <cstdint>

#include "model/machine.hpp"

namespace rcf::model {

/// Shape parameters of one solver configuration, in the paper's notation.
struct AlgorithmShape {
  double n_iters = 0;   ///< N, total inner iterations
  double d = 0;         ///< feature dimension (# rows of X)
  double m_bar = 0;     ///< sampled batch size per iteration
  double fill = 1.0;    ///< f, non-zero fill-in of X
  double p = 1;         ///< number of processors
  double k = 1;         ///< iteration-overlapping parameter
  double s = 1;         ///< Hessian-reuse inner iterations
};

/// One row of Table 1.
struct CostTriple {
  double latency_msgs = 0.0;  ///< L
  double flops = 0.0;         ///< F
  double bandwidth_words = 0.0;  ///< W
};

/// Table 1, SFISTA row: L = N log P, F = N d^2 mbar f / P, W = N d^2 log P.
[[nodiscard]] CostTriple sfista_cost(const AlgorithmShape& shape);

/// Table 1, RC-SFISTA row: L = (N/k) log P, F = N d^2 mbar f / P + S d^2,
/// W = N d^2 log P.  (S d^2 is charged per iteration group as in Eq. 24.)
[[nodiscard]] CostTriple rcsfista_cost(const AlgorithmShape& shape);

/// Eq. 24: modeled runtime of RC-SFISTA under `spec`.
[[nodiscard]] double rcsfista_runtime(const AlgorithmShape& shape,
                                      const MachineSpec& spec);

/// Modeled runtime for the cost triple under `spec` (Eq. 7).
[[nodiscard]] double runtime(const CostTriple& cost, const MachineSpec& spec);

/// Eq. 25: k <= alpha / (beta d^2).  Returns the (real-valued) bound.
[[nodiscard]] double k_bound_latency_bandwidth(const MachineSpec& spec,
                                               double d);

/// Eq. 26: k <= alpha N P log(P) / (gamma [N d^2 mbar f + S d^2 P]).
[[nodiscard]] double k_bound_latency_flops(const AlgorithmShape& shape,
                                           const MachineSpec& spec);

/// Eq. 27: k*S <= alpha N log(P) / (gamma d^2)  (f ~ 0 limit).
[[nodiscard]] double ks_bound_sparse(const AlgorithmShape& shape,
                                     const MachineSpec& spec);

/// Eq. 28: S <= beta N log(P) / gamma.
[[nodiscard]] double s_bound(const AlgorithmShape& shape,
                             const MachineSpec& spec);

/// Predicted fraction of one chunk-reduction's time hidden behind compute
/// by the nonblocking [H|R] pipeline (core/engine.cpp, pipeline mode).
///
/// Between posting chunk t's iallreduce and first waiting on it, the main
/// thread builds the next staleness + 1 chunks' Gram blocks and runs
/// staleness chunks of update sweeps; the reduction itself costs the
/// alpha-beta time of one k-block allreduce.  The returned value is
/// clamp(T_hide / T_reduce, 0, 1): 1 means the model expects the wait to
/// always find the reduction complete (exposed comm ~ 0), 0 means no
/// overlap (the blocking schedule).  P = 1 reduces locally in negligible
/// time and reports 1.
[[nodiscard]] double pipelined_overlap_fraction(const AlgorithmShape& shape,
                                                const MachineSpec& spec,
                                                int staleness);

}  // namespace rcf::model
