// BLAS-style dense kernels (levels 1-2) over std::span.
//
// These substitute the Intel MKL routines the paper links against.  All
// kernels are written for predictable vectorization (contiguous unit-stride
// loops) and carry documented flop counts so the cost model can account for
// them exactly.
#pragma once

#include <cstddef>
#include <span>

#include "la/matrix.hpp"
#include "la/vector.hpp"

namespace rcf::la {

// ---------------------------------------------------------------------------
// Level 1 -- vector-vector.  Flop counts: axpy/waxpby 2n, dot 2n, nrm2 2n.
// ---------------------------------------------------------------------------

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// w = alpha * x + beta * y
void waxpby(double alpha, std::span<const double> x, double beta,
            std::span<const double> y, std::span<double> w);

/// x *= alpha
void scal(double alpha, std::span<double> x);

/// dst = src
void copy(std::span<const double> src, std::span<double> dst);

/// <x, y>
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// ||x||_2
[[nodiscard]] double nrm2(std::span<const double> x);

/// ||x||_1
[[nodiscard]] double asum(std::span<const double> x);

/// max_i |x_i|
[[nodiscard]] double amax(std::span<const double> x);

/// ||x - y||_inf
[[nodiscard]] double max_abs_diff(std::span<const double> x,
                                  std::span<const double> y);

/// Sets all entries to zero.
void set_zero(std::span<double> x);

// ---------------------------------------------------------------------------
// Level 2 -- matrix-vector.  Flop counts: gemv 2*rows*cols; the mirror none.
// ---------------------------------------------------------------------------

/// y = alpha * A x + beta * y  (A row-major rows x cols)
void gemv(double alpha, const Matrix& a, std::span<const double> x, double beta,
          std::span<double> y);

/// Copies the upper triangle of C onto the lower triangle (C square).
void symmetrize_from_upper(Matrix& c);

}  // namespace rcf::la
