// Sampled Gram-matrix kernels.
//
// These are the stage-B kernels of the paper's Fig. 1: given the sample-major
// matrix X^T (CSR, one row per sample x_i) and a sampled index set I_n, form
//
//   H_n = (1/mbar) * sum_{i in I_n} x_i x_i^T      (Alg. 5 line 5)
//   R_n = (1/mbar) * sum_{i in I_n} y_i x_i
//
// by accumulating sparse outer products into dense storage.  Each kernel
// returns the exact number of floating-point multiply-adds performed, which
// feeds the alpha-beta-gamma cost model (Table 1's  d^2 * mbar * f  term --
// for a row with nnz_i non-zeros the outer product costs nnz_i^2 madds).
#pragma once

#include <cstdint>
#include <span>

#include "la/matrix.hpp"
#include "sparse/csr.hpp"

namespace rcf::sparse {

/// Accumulates scale * sum_{i in idx} x_i x_i^T into `h` (must be d x d,
/// pre-zeroed or holding a previous partial sum) and scale * sum y_i x_i into
/// `r`.  Non-empty `weights` (indexed by row of xt) scale row i by
/// scale * weights[i] instead: the generalized ERM Hessian kernel (e.g.
/// logistic regression, weights[i] = sigma_i (1 - sigma_i)).  Returns the
/// number of flops performed (2 per multiply-add).
std::uint64_t accumulate_sampled_gram(const CsrMatrix& xt,
                                      std::span<const double> y,
                                      std::span<const std::uint32_t> idx,
                                      double scale, la::Matrix& h,
                                      std::span<double> r,
                                      std::span<const double> weights = {});

/// H = (1/|idx|) sum_{i in idx} x_i x_i^T ; R = (1/|idx|) sum y_i x_i.
/// Overwrites h and r.  Returns flops.
std::uint64_t sampled_gram(const CsrMatrix& xt, std::span<const double> y,
                           std::span<const std::uint32_t> idx, la::Matrix& h,
                           std::span<double> r);

/// Full Gram over all m samples: H = (1/m) X X^T, R = (1/m) X y.
/// Used by the variance-reduction epoch step (Eq. 9) and the PN driver.
std::uint64_t full_gram(const CsrMatrix& xt, std::span<const double> y,
                        la::Matrix& h, std::span<double> r);

/// Exact flop count accumulate_sampled_gram would perform for `idx`,
/// without doing the work.  Used for per-rank critical-path costing.
[[nodiscard]] std::uint64_t sampled_gram_flops(
    const CsrMatrix& xt, std::span<const std::uint32_t> idx);

}  // namespace rcf::sparse
