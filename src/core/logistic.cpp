#include "core/logistic.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"

namespace rcf::core {

namespace {

/// Numerically stable log(1 + exp(z)).
inline double log1p_exp(double z) {
  if (z > 0.0) {
    return z + std::log1p(std::exp(-z));
  }
  return std::log1p(std::exp(z));
}

/// Numerically stable logistic sigmoid.
inline double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

LogisticProblem::LogisticProblem(const data::Dataset& dataset, double lambda)
    : dataset_(&dataset), lambda_(lambda) {
  RCF_CHECK_MSG(lambda >= 0.0, "LogisticProblem: lambda must be >= 0");
  dataset.validate();
  for (std::size_t i = 0; i < dataset.num_samples(); ++i) {
    RCF_CHECK_MSG(dataset.y[i] == 1.0 || dataset.y[i] == -1.0,
                  "LogisticProblem: labels must be +-1");
  }
}

double LogisticProblem::smooth_value(std::span<const double> w) const {
  RCF_CHECK_MSG(w.size() == dim(), "logistic: wrong dimension");
  const std::size_t m = num_samples();
  std::vector<double> z(m);
  dataset_->xt.spmv(w, z);
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    acc += log1p_exp(-dataset_->y[i] * z[i]);
  }
  return acc / static_cast<double>(m);
}

double LogisticProblem::objective(std::span<const double> w) const {
  return smooth_value(w) + lambda_ * la::asum(w);
}

void LogisticProblem::gradient(std::span<const double> w,
                               std::span<double> out,
                               std::span<double> curvature) const {
  RCF_CHECK_MSG(w.size() == dim() && out.size() == dim(),
                "logistic gradient: wrong dimension");
  const std::size_t m = num_samples();
  std::vector<double> z(m);
  dataset_->xt.spmv(w, z);
  // residual_i = -y_i sigma(-y_i z_i); grad = (1/m) X^T' residual.
  for (std::size_t i = 0; i < m; ++i) {
    const double s = sigmoid(-dataset_->y[i] * z[i]);
    if (!curvature.empty()) {
      curvature[i] = s * (1.0 - s);
    }
    z[i] = -dataset_->y[i] * s;
  }
  dataset_->xt.spmv_t(z, out);
  la::scal(1.0 / static_cast<double>(m), out);
}

double LogisticProblem::lipschitz() const {
  if (!lipschitz_) {
    const std::size_t m = num_samples();
    std::vector<double> tmp(m);
    const auto result = la::power_iteration(
        [this, &tmp](std::span<const double> v, std::span<double> hv) {
          dataset_->xt.spmv(v, tmp);
          dataset_->xt.spmv_t(tmp, hv);
          la::scal(0.25 / static_cast<double>(num_samples()), hv);
        },
        dim(), /*max_iters=*/300, /*tol=*/1e-9);
    lipschitz_ = std::max(result.eigenvalue, 1e-300);
  }
  return *lipschitz_;
}

}  // namespace rcf::core
