#include "core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {

LassoProblem::LassoProblem(const data::Dataset& dataset, double lambda)
    : dataset_(&dataset), lambda_(lambda) {
  RCF_CHECK_MSG(lambda >= 0.0, "LassoProblem: lambda must be >= 0");
  dataset.validate();
}

double LassoProblem::smooth_value(std::span<const double> w) const {
  RCF_CHECK_MSG(w.size() == dim(), "objective: wrong dimension");
  const std::size_t m = num_samples();
  std::vector<double> residual(m);
  xt().spmv(w, residual);  // X^T w
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double r = residual[i] - y()[i];
    acc += r * r;
  }
  return acc / (2.0 * static_cast<double>(m));
}

double LassoProblem::objective(std::span<const double> w) const {
  return smooth_value(w) + lambda_ * la::asum(w);
}

void LassoProblem::gradient(std::span<const double> w, std::span<double> out,
                            std::span<double> curvature) const {
  RCF_CHECK_MSG(w.size() == dim() && out.size() == dim(),
                "gradient: wrong dimension");
  const std::size_t m = num_samples();
  std::vector<double> residual(m);
  xt().spmv(w, residual);  // X^T w
  for (std::size_t i = 0; i < m; ++i) {
    residual[i] -= y()[i];
  }
  xt().spmv_t(residual, out);  // X (X^T w - y)
  la::scal(1.0 / static_cast<double>(m), out);
  std::fill(curvature.begin(), curvature.end(), 1.0);
}

double LassoProblem::lipschitz() const {
  if (!lipschitz_) {
    const std::size_t m = num_samples();
    std::vector<double> tmp(m);
    const auto result = la::power_iteration(
        [this, &tmp](std::span<const double> v, std::span<double> hv) {
          xt().spmv(v, tmp);
          xt().spmv_t(tmp, hv);
          la::scal(1.0 / static_cast<double>(num_samples()), hv);
        },
        dim(), /*max_iters=*/300, /*tol=*/1e-9);
    lipschitz_ = std::max(result.eigenvalue, 1e-300);
  }
  return *lipschitz_;
}

const la::Matrix& LassoProblem::full_hessian() const {
  if (!hessian_) {
    la::Matrix h(dim(), dim());
    la::Vector r(dim());
    sparse::full_gram(xt(), y().span(), h, r.span());
    hessian_ = std::move(h);
    rhs_ = std::move(r);
  }
  return *hessian_;
}

const la::Vector& LassoProblem::full_rhs() const {
  if (!rhs_) {
    (void)full_hessian();  // builds both
  }
  return *rhs_;
}

double LassoProblem::lambda_max() const {
  std::vector<double> xy(dim());
  xt().spmv_t(y().span(), xy);
  return la::amax(xy) / static_cast<double>(num_samples());
}

double LassoProblem::theorem1_step_bound(std::size_t mbar) const {
  const auto m = static_cast<double>(num_samples());
  const auto mb = static_cast<double>(mbar);
  RCF_CHECK_MSG(mbar >= 1 && mb <= m, "theorem1_step_bound: bad mbar");
  const double l = lipschitz();
  if (m <= 1.0) {
    return 1.0 / l;
  }
  const double variance_term =
      std::sqrt(0.25 + 4.0 * l * l * (m - mb) / (mb * (m - 1.0)));
  const double inv_gamma = std::max(0.5 * l + variance_term, l);
  return 1.0 / inv_gamma;
}

}  // namespace rcf::core
