// Tests for the sampled-Gram kernel: correctness against dense reference,
// flop accounting, and partition-sum consistency (the distributed identity).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "sparse/generate.hpp"
#include "sparse/gram.hpp"

namespace rcf::sparse {
namespace {

/// Dense reference: H = (1/|idx|) sum w_i x_i x_i^T, R = (1/|idx|) sum
/// w_i y_i x_i, with w_i = weights[i] (1 when `weights` is empty).
void dense_reference(const CsrMatrix& xt, std::span<const double> y,
                     std::span<const std::uint32_t> idx, la::Matrix& h,
                     la::Vector& r, std::span<const double> weights = {}) {
  const std::size_t d = xt.cols();
  h.reset(d, d);
  r = la::Vector(d);
  const auto dense = xt.to_dense();
  const double scale = 1.0 / static_cast<double>(idx.size());
  for (auto i : idx) {
    const double wi = weights.empty() ? 1.0 : weights[i];
    for (std::size_t a = 0; a < d; ++a) {
      const double xa = dense[i * d + a];
      r[a] += scale * wi * y[i] * xa;
      for (std::size_t b = 0; b < d; ++b) {
        h(a, b) += scale * wi * xa * dense[i * d + b];
      }
    }
  }
}

CsrMatrix test_matrix(std::size_t rows = 60, std::size_t cols = 12,
                      double density = 0.4) {
  GenerateOptions opts;
  opts.rows = rows;
  opts.cols = cols;
  opts.density = density;
  opts.seed = 17;
  return generate_random(opts);
}

TEST(SampledGram, MatchesDenseReference) {
  const auto xt = test_matrix();
  la::Vector y(60);
  Rng rng(2, 0);
  for (auto& v : y) v = rng.normal();

  Rng srng(3, 1);
  const auto idx = srng.sample_without_replacement(60, 20);
  la::Matrix h(12, 12), href;
  la::Vector r(12), rref;
  sampled_gram(xt, y.span(), idx, h, r.span());
  dense_reference(xt, y.span(), idx, href, rref);
  EXPECT_LT(la::Matrix::max_abs_diff(h, href), 1e-13);
  EXPECT_LT(la::max_abs_diff(r.span(), rref.span()), 1e-13);
}

TEST(SampledGram, DenseRowsFastPathMatches) {
  // density = 1 exercises the contiguous-row fast path.
  const auto xt = test_matrix(30, 9, 1.0);
  la::Vector y(30, 1.0);
  Rng srng(3, 1);
  const auto idx = srng.sample_without_replacement(30, 10);
  la::Matrix h(9, 9), href;
  la::Vector r(9), rref;
  sampled_gram(xt, y.span(), idx, h, r.span());
  dense_reference(xt, y.span(), idx, href, rref);
  EXPECT_LT(la::Matrix::max_abs_diff(h, href), 1e-13);
  EXPECT_LT(la::max_abs_diff(r.span(), rref.span()), 1e-12);
}

TEST(SampledGram, ResultIsSymmetric) {
  const auto xt = test_matrix();
  la::Vector y(60, 0.5);
  Rng srng(9, 1);
  const auto idx = srng.sample_without_replacement(60, 15);
  la::Matrix h(12, 12);
  la::Vector r(12);
  sampled_gram(xt, y.span(), idx, h, r.span());
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_EQ(h(i, j), h(j, i));
    }
  }
}

TEST(SampledGram, FullGramEqualsAllIndices) {
  const auto xt = test_matrix();
  la::Vector y(60);
  Rng rng(2, 0);
  for (auto& v : y) v = rng.normal();
  la::Matrix h1(12, 12), h2(12, 12);
  la::Vector r1(12), r2(12);
  full_gram(xt, y.span(), h1, r1.span());
  std::vector<std::uint32_t> all(60);
  std::iota(all.begin(), all.end(), 0u);
  sampled_gram(xt, y.span(), all, h2, r2.span());
  EXPECT_EQ(la::Matrix::max_abs_diff(h1, h2), 0.0);
}

TEST(SampledGram, PartitionedAccumulationSumsToWhole) {
  // The distributed identity: per-rank partial sums (scaled by the global
  // 1/mbar) add up to the sequential result.
  const auto xt = test_matrix(80, 10, 0.5);
  la::Vector y(80);
  Rng rng(4, 0);
  for (auto& v : y) v = rng.normal();
  Rng srng(5, 1);
  const auto idx = srng.sample_without_replacement(80, 32);

  la::Matrix h_seq(10, 10);
  la::Vector r_seq(10);
  sampled_gram(xt, y.span(), idx, h_seq, r_seq.span());

  la::Matrix h_sum(10, 10);
  la::Vector r_sum(10);
  const double scale = 1.0 / 32.0;
  // Split the sorted index set at an arbitrary boundary (rank 0: rows < 40).
  std::vector<std::uint32_t> lo, hi;
  for (auto i : idx) {
    (i < 40 ? lo : hi).push_back(i);
  }
  accumulate_sampled_gram(xt, y.span(), lo, scale, h_sum, r_sum.span());
  accumulate_sampled_gram(xt, y.span(), hi, scale, h_sum, r_sum.span());
  la::symmetrize_from_upper(h_sum);
  EXPECT_LT(la::Matrix::max_abs_diff(h_seq, h_sum), 1e-14);
  EXPECT_LT(la::max_abs_diff(r_seq.span(), r_sum.span()), 1e-14);
}

TEST(SampledGram, WeightedAccumulationMatchesWeightedGram) {
  // The chunk loop builds PN's blocks by accumulation with per-row
  // curvature weights; H and R must match the weighted dense reference.
  const auto xt = test_matrix(80, 10, 0.5);
  la::Vector y(80), weights(80);
  Rng rng(6, 0);
  for (std::size_t i = 0; i < 80; ++i) {
    y[i] = rng.normal();
    weights[i] = rng.uniform();
  }
  Rng srng(7, 1);
  const auto idx = srng.sample_without_replacement(80, 32);
  la::Matrix h(10, 10), href;
  la::Vector r(10), rref;
  accumulate_sampled_gram(xt, y.span(), idx, 1.0 / 32.0, h, r.span(),
                          weights.span());
  la::symmetrize_from_upper(h);
  dense_reference(xt, y.span(), idx, href, rref, weights.span());
  EXPECT_LT(la::Matrix::max_abs_diff(h, href), 1e-13);
  EXPECT_LT(la::max_abs_diff(r.span(), rref.span()), 1e-13);
}

TEST(SampledGram, UnbiasedEstimatorOfFullGram) {
  // E[H_S] = H: average many sampled Grams and compare.
  const auto xt = test_matrix(200, 8, 0.6);
  la::Vector y(200, 1.0);
  la::Matrix h_full(8, 8), h_avg(8, 8), h_s(8, 8);
  la::Vector r(8);
  full_gram(xt, y.span(), h_full, r.span());
  constexpr int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(100, static_cast<std::uint64_t>(t));
    const auto idx = rng.sample_without_replacement(200, 20);
    sampled_gram(xt, y.span(), idx, h_s, r.span());
    la::axpy(1.0 / kTrials, h_s.flat(), h_avg.flat());
  }
  EXPECT_LT(la::Matrix::max_abs_diff(h_full, h_avg), 0.05);
}

TEST(SampledGram, FlopCountMatchesPredictor) {
  const auto xt = test_matrix();
  la::Vector y(60, 1.0);
  Rng srng(6, 1);
  const auto idx = srng.sample_without_replacement(60, 25);
  la::Matrix h(12, 12);
  la::Vector r(12);
  const auto flops = sampled_gram(xt, y.span(), idx, h, r.span());
  EXPECT_EQ(flops, sampled_gram_flops(xt, idx));
  EXPECT_GT(flops, 0u);
}

TEST(SampledGram, RejectsBadShapes) {
  const auto xt = test_matrix();
  la::Vector y(60, 1.0);
  Rng srng(6, 1);
  const auto idx = srng.sample_without_replacement(60, 5);
  la::Matrix h_bad(5, 5);
  la::Vector r(12);
  EXPECT_THROW(sampled_gram(xt, y.span(), idx, h_bad, r.span()),
               InvalidArgument);
  la::Matrix h(12, 12);
  la::Vector r_bad(3);
  EXPECT_THROW(sampled_gram(xt, y.span(), idx, h, r_bad.span()),
               InvalidArgument);
  EXPECT_THROW(sampled_gram(xt, y.span(), {}, h, r.span()), InvalidArgument);
}

}  // namespace
}  // namespace rcf::sparse
