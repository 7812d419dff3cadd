#include "prox/operators.hpp"

#include "common/error.hpp"

namespace rcf::prox {

double soft_threshold(double value, double threshold) {
  if (value > threshold) {
    return value - threshold;
  }
  if (value < -threshold) {
    return value + threshold;
  }
  return 0.0;
}

void soft_threshold(std::span<const double> in, double threshold,
                    std::span<double> out) {
  RCF_DCHECK(in.size() == out.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = soft_threshold(in[i], threshold);
  }
}

}  // namespace rcf::prox
