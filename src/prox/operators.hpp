// Proximal operator of the paper's regularizer (Eq. 6):
//   Prox_g^gamma(w) = argmin_x { (1/2 gamma) ||x - w||^2 + g(x) }.
//
// Every solver minimizes Eq. 3 with g(w) = lambda ||w||_1, whose prox is
// soft thresholding at lambda * gamma (Eq. 14).
#pragma once

#include <span>

namespace rcf::prox {

/// Scalar soft threshold S_a(b) = sign(b) max(|b| - a, 0).
[[nodiscard]] double soft_threshold(double value, double threshold);

/// Vector soft threshold, out-of-place: out_i = S_t(in_i).
void soft_threshold(std::span<const double> in, double threshold,
                    std::span<double> out);

}  // namespace rcf::prox
