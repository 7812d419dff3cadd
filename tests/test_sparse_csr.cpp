// Tests for the CSR matrix: construction, kernels, slicing, transpose.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"
#include "sparse/generate.hpp"

namespace rcf::sparse {
namespace {

CsrMatrix small() {
  // [1 0 2]
  // [0 0 0]
  // [3 4 0]
  return CsrMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {2, 0, 3.0}, {2, 1, 4.0}});
}

TEST(Csr, FromTripletsBasics) {
  const auto m = small();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_nnz(1), 0u);
  EXPECT_DOUBLE_EQ(m.density(), 4.0 / 9.0);
}

TEST(Csr, DuplicatesAreSummed) {
  const auto m =
      CsrMatrix::from_triplets(1, 2, {{0, 1, 1.5}, {0, 1, 2.5}, {0, 0, 1.0}});
  EXPECT_EQ(m.nnz(), 2u);
  const auto row = m.row(0);
  EXPECT_DOUBLE_EQ(row.vals[1], 4.0);
}

TEST(Csr, DuplicatesCancellingToZeroAreDropped) {
  const auto m = CsrMatrix::from_triplets(1, 1, {{0, 0, 1.0}, {0, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(Csr, OutOfBoundsTripletThrows) {
  EXPECT_THROW(CsrMatrix::from_triplets(1, 1, {{0, 1, 1.0}}),
               InvalidArgument);
  EXPECT_THROW(CsrMatrix::from_triplets(1, 1, {{1, 0, 1.0}}),
               InvalidArgument);
}

TEST(Csr, FromPartsValidates) {
  // Non-monotone row_ptr.
  EXPECT_THROW(CsrMatrix::from_parts(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
               InvalidArgument);
  // Unsorted columns within a row.
  EXPECT_THROW(CsrMatrix::from_parts(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}),
               InvalidArgument);
  // Column out of range.
  EXPECT_THROW(CsrMatrix::from_parts(1, 2, {0, 1}, {5}, {1.0}),
               InvalidArgument);
  // Length mismatch.
  EXPECT_THROW(CsrMatrix::from_parts(1, 2, {0, 2}, {0, 1}, {1.0}),
               InvalidArgument);
}

TEST(Csr, Spmv) {
  const auto m = small();
  la::Vector x{1.0, 2.0, 3.0}, y(3);
  m.spmv(x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 7.0);   // 1*1 + 2*3
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);  // 3*1 + 4*2
}

TEST(Csr, SpmvT) {
  const auto m = small();
  la::Vector x{1.0, 5.0, 2.0}, y(3);
  m.spmv_t(x.span(), y.span());
  EXPECT_DOUBLE_EQ(y[0], 7.0);  // 1*1 + 3*2
  EXPECT_DOUBLE_EQ(y[1], 8.0);  // 4*2
  EXPECT_DOUBLE_EQ(y[2], 2.0);  // 2*1
}

TEST(Csr, SpmvShapeChecks) {
  const auto m = small();
  la::Vector wrong(2), y(3);
  EXPECT_THROW(m.spmv(wrong.span(), y.span()), DimensionMismatch);
  EXPECT_THROW(m.spmv_t(wrong.span(), y.span()), DimensionMismatch);
}

TEST(Csr, SpmvTransposeConsistency) {
  // <A x, y> == <x, A^T y> for random data.
  GenerateOptions opts;
  opts.rows = 40;
  opts.cols = 23;
  opts.density = 0.3;
  const auto a = generate_random(opts);
  Rng rng(8, 0);
  la::Vector x(23), y(40), ax(40), aty(23);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  a.spmv(x.span(), ax.span());
  a.spmv_t(y.span(), aty.span());
  EXPECT_NEAR(la::dot(ax.span(), y.span()), la::dot(x.span(), aty.span()),
              1e-11);
}

TEST(Csr, SelectRows) {
  const auto m = small();
  const std::vector<std::uint32_t> rows = {2, 0};
  const auto s = m.select_rows(rows);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.row_nnz(0), 2u);  // old row 2
  EXPECT_DOUBLE_EQ(s.row(0).vals[1], 4.0);
  EXPECT_DOUBLE_EQ(s.row(1).vals[0], 1.0);
}

TEST(Csr, SelectRowsOutOfRangeThrows) {
  const std::vector<std::uint32_t> rows = {5};
  EXPECT_THROW(small().select_rows(rows), InvalidArgument);
}

TEST(Csr, SliceRows) {
  const auto m = small();
  const auto s = m.slice_rows(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_DOUBLE_EQ(s.row(1).vals[0], 3.0);
  EXPECT_THROW(m.slice_rows(2, 1), InvalidArgument);
  EXPECT_THROW(m.slice_rows(0, 4), InvalidArgument);
}

TEST(Csr, SlicesConcatenateToWhole) {
  GenerateOptions opts;
  opts.rows = 33;
  opts.cols = 10;
  opts.density = 0.4;
  const auto a = generate_random(opts);
  const auto s1 = a.slice_rows(0, 11);
  const auto s2 = a.slice_rows(11, 33);
  EXPECT_EQ(s1.nnz() + s2.nnz(), a.nnz());
  // SpMV over slices must agree with whole-matrix SpMV.
  la::Vector x(10), y(33), y1(11), y2(22);
  Rng rng(1, 0);
  for (auto& v : x) v = rng.normal();
  a.spmv(x.span(), y.span());
  s1.spmv(x.span(), y1.span());
  s2.spmv(x.span(), y2.span());
  for (std::size_t i = 0; i < 11; ++i) EXPECT_DOUBLE_EQ(y[i], y1[i]);
  for (std::size_t i = 0; i < 22; ++i) EXPECT_DOUBLE_EQ(y[11 + i], y2[i]);
}

TEST(Csr, TransposedMatchesDense) {
  GenerateOptions opts;
  opts.rows = 12;
  opts.cols = 7;
  opts.density = 0.5;
  const auto a = generate_random(opts);
  const auto at = a.transposed();
  EXPECT_EQ(at.rows(), 7u);
  EXPECT_EQ(at.cols(), 12u);
  const auto dense = a.to_dense();
  const auto dense_t = at.to_dense();
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_DOUBLE_EQ(dense[r * 7 + c], dense_t[c * 12 + r]);
    }
  }
}

TEST(Csr, MemoryBytesPositive) {
  EXPECT_GT(small().memory_bytes(), 0u);
}

TEST(Generate, ShapeAndDensity) {
  GenerateOptions opts;
  opts.rows = 100;
  opts.cols = 50;
  opts.density = 0.2;
  const auto a = generate_random(opts);
  EXPECT_EQ(a.rows(), 100u);
  EXPECT_EQ(a.cols(), 50u);
  EXPECT_NEAR(a.density(), 0.2, 0.02);
  // Every row must have the same nnz (round(f * cols)).
  for (std::size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(a.row_nnz(r), 10u);
  }
}

TEST(Generate, Deterministic) {
  GenerateOptions opts;
  opts.rows = 20;
  opts.cols = 20;
  opts.density = 0.3;
  opts.seed = 5;
  const auto a = generate_random(opts);
  EXPECT_EQ(a, generate_random(opts));
  opts.seed = 6;
  EXPECT_FALSE(a == generate_random(opts));
}

TEST(Generate, RejectsBadOptions) {
  GenerateOptions opts;
  opts.rows = 0;
  opts.cols = 5;
  EXPECT_THROW(generate_random(opts), InvalidArgument);
  opts.rows = 5;
  opts.density = 0.0;
  EXPECT_THROW(generate_random(opts), InvalidArgument);
  opts.density = 1.5;
  EXPECT_THROW(generate_random(opts), InvalidArgument);
}

}  // namespace
}  // namespace rcf::sparse
