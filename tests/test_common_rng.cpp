// Tests for the counter-based RNG: determinism, stream independence,
// statistical sanity, and the sampling primitives the solvers depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/partition.hpp"
#include "prop.hpp"

namespace rcf {
namespace {

TEST(Philox, KnownStructure) {
  // The block function must be a pure function of (counter, key).
  const auto a = Philox4x32::block({1, 2, 3, 4}, {5, 6});
  const auto b = Philox4x32::block({1, 2, 3, 4}, {5, 6});
  EXPECT_EQ(a, b);
  // Different counters / keys must give different blocks.
  EXPECT_NE(a, Philox4x32::block({1, 2, 3, 5}, {5, 6}));
  EXPECT_NE(a, Philox4x32::block({1, 2, 3, 4}, {5, 7}));
}

TEST(Rng, DeterministicPerSeedAndStream) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u32() == b.next_u32();
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, SeedsAreIndependent) {
  Rng a(1, 0), b(2, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u32() == b.next_u32();
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(123, 0);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(9, 0);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexUnbiased) {
  Rng rng(7, 0);
  constexpr std::uint64_t kBuckets = 7;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.uniform_index(kBuckets)];
  }
  for (auto c : counts) {
    EXPECT_NEAR(c, kN / kBuckets, 0.05 * kN / kBuckets);
  }
}

TEST(Rng, UniformIndexKnownAnswers) {
  // Recorded from the plain rejection test (threshold computed on every
  // draw): eight draws per n, then the generator's next word.  At
  // 2^63 + 5 about half the raw words fall below the threshold, so the
  // rejection branch is pinned too.
  struct Case {
    std::uint64_t n;
    std::array<std::uint64_t, 8> draws;
    std::uint64_t next;
  };
  const Case cases[] = {
      {1, {0, 0, 0, 0, 0, 0, 0, 0}, 9560459220604670184u},
      {3, {1, 1, 1, 2, 0, 2, 2, 2}, 9560459220604670184u},
      {29051,
       {16258, 27685, 24623, 13376, 1651, 10144, 7087, 20542},
       9560459220604670184u},
      {(std::uint64_t{1} << 63) + 5,
       {6115578505609807287u, 6038891239695394032u, 2005703479422329543u,
        6457881812422931737u, 337087183749894371u, 5381660523850117121u,
        8720766788549378745u, 3253722230165048655u},
       3399056435625342416u},
      {~std::uint64_t{0},
       {15338950542464583100u, 15262263276550169845u, 5644874513906209741u,
        2942838556126953341u, 11229075516277105356u, 15681253849277707550u,
        795625396824564980u, 8283987447998924249u},
       9560459220604670184u},
  };
  for (const auto& c : cases) {
    Rng rng(2024, 7);
    for (const auto want : c.draws) {
      EXPECT_EQ(rng.uniform_index(c.n), want) << "n=" << c.n;
    }
    EXPECT_EQ(rng.next_u64(), c.next) << "n=" << c.n;
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(7, 0);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, NormalMoments) {
  Rng rng(99, 0);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(99, 1);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.normal(10.0, 2.0);
  }
  EXPECT_NEAR(sum / kN, 10.0, 0.1);
}

TEST(SampleWithoutReplacement, BasicContract) {
  Rng rng(5, 3);
  const auto sample = rng.sample_without_replacement(1000, 100);
  EXPECT_EQ(sample.size(), 100u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (auto v : sample) {
    EXPECT_LT(v, 1000u);
  }
}

TEST(SampleWithoutReplacement, FullRange) {
  Rng rng(5, 3);
  const auto sample = rng.sample_without_replacement(50, 50);
  EXPECT_EQ(sample.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sample[i], i);  // sorted permutation of 0..49
  }
}

TEST(SampleWithoutReplacement, DenseAndSparseRegimesAgreeOnContract) {
  // count*3 >= n triggers Fisher-Yates; smaller counts use Floyd.
  for (std::uint64_t count : {5ull, 400ull}) {
    Rng rng(11, count);
    const auto sample = rng.sample_without_replacement(1000, count);
    EXPECT_EQ(sample.size(), count);
    std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), count);
  }
}

TEST(SampleWithoutReplacement, CountZero) {
  Rng rng(5, 3);
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
}

TEST(SampleWithoutReplacement, CountGreaterThanNThrows) {
  Rng rng(5, 3);
  EXPECT_THROW(rng.sample_without_replacement(10, 11), InvalidArgument);
}

TEST(SampleWithoutReplacement, RejectsRangeBeyondUint32) {
  Rng rng(5, 3);
  EXPECT_THROW(rng.sample_without_replacement((std::uint64_t{1} << 32) + 1, 1),
               InvalidArgument);
  EXPECT_THROW(rng.sample_without_replacement(std::uint64_t{1} << 33, 1),
               InvalidArgument);
}

/// The sampler's defining draw sequence, written the plain way: Floyd's
/// algorithm with std::set membership below count * 3 < n, a partial
/// Fisher-Yates otherwise, then a sort.
std::vector<std::uint32_t> reference_sample(Rng& rng, std::uint64_t n,
                                            std::uint64_t count) {
  std::vector<std::uint32_t> out;
  if (count == 0) {
    return out;
  }
  if (count * 3 >= n) {
    std::vector<std::uint32_t> pool(n);
    std::iota(pool.begin(), pool.end(), 0u);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t j = i + rng.uniform_index(n - i);
      std::swap(pool[i], pool[j]);
    }
    out.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count));
  } else {
    std::set<std::uint32_t> chosen;
    for (std::uint64_t j = n - count; j < n; ++j) {
      const auto t = static_cast<std::uint32_t>(rng.uniform_index(j + 1));
      if (!chosen.insert(t).second) {
        chosen.insert(static_cast<std::uint32_t>(j));
      }
    }
    out.assign(chosen.begin(), chosen.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SampleWithoutReplacement, MatchesReferenceDrawSequence) {
  // Every golden fixture depends on the exact sample sets, so the sampler
  // must return the reference's vector and leave the generator in the same
  // state.  n is biased to the bitmap's word edges (n mod 64 in {0, 1, 63})
  // and count to both regimes and the boundary between them.
  prop::for_all("sampler == reference", 0x5A4D, 300, [](prop::Gen& g) {
    const std::uint64_t q = g.size(1, 70000) / 64;
    std::uint64_t n = 0;
    switch (g.index(4)) {
      case 0:
        n = 64 * std::max<std::uint64_t>(q, 1);
        break;
      case 1:
        n = 64 * q + 1;
        break;
      case 2:
        n = q > 0 ? 64 * q - 1 : 63;
        break;
      default:
        n = g.size(1, 70000);
        break;
    }
    const std::uint64_t third = (n + 2) / 3;  // ceil(n / 3)
    const std::uint64_t counts[] = {0, 1, third - 1, third, g.index(n + 1), n};
    const std::uint64_t count = counts[g.index(6)];
    const std::uint64_t seed = g.seed();
    const std::uint64_t stream = g.seed();
    Rng fast(seed, stream);
    Rng ref(seed, stream);
    if (fast.sample_without_replacement(n, count) !=
        reference_sample(ref, n, count)) {
      return testing::AssertionFailure()
             << "sets differ at n=" << n << " count=" << count;
    }
    if (fast.next_u64() != ref.next_u64()) {
      return testing::AssertionFailure()
             << "generator state differs at n=" << n << " count=" << count;
    }
    return testing::AssertionSuccess();
  });
}

TEST(SampleWithoutReplacement, UniformCoverage) {
  // Every index should be sampled with roughly equal frequency.
  constexpr std::uint64_t kN = 50, kCount = 10;
  std::vector<int> hits(kN, 0);
  constexpr int kTrials = 5000;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(13, static_cast<std::uint64_t>(t));
    for (auto v : rng.sample_without_replacement(kN, kCount)) {
      ++hits[v];
    }
  }
  const double expected = kTrials * static_cast<double>(kCount) / kN;
  for (auto h : hits) {
    EXPECT_NEAR(h, expected, 0.15 * expected);
  }
}

// ---------------------------------------------------------------------------
// The split-tree sampler: every solve's sample sets.

TEST(SplitTreeSampler, RankSharesUnionToTheOneRankSet) {
  // Seeded (n, count, seed, stream), n < P included and count biased to
  // {1, n}: at every P in 1..8 the windows of the P-part partition return
  // ascending offsets whose union is the 1-rank set, which is count
  // distinct sorted indices; an arbitrary window is the set's slice.
  prop::for_all("split-tree shares == 1-rank set", 0x5EED7, 300,
                [](prop::Gen& g) {
    const std::uint64_t n =
        g.index(4) == 0 ? g.size(1, 8) : g.size(1, 60000);
    const std::uint64_t counts[] = {1, n, g.size(1, n), g.size(1, n),
                                    g.index(n + 1)};
    const std::uint64_t count = counts[g.index(5)];
    const std::uint64_t seed = g.seed();
    const std::uint64_t stream = g.seed();
    const SplitTreeSampler sampler(n, count);
    const auto full = sampler.sample(seed, stream);
    const std::set<std::uint32_t> distinct(full.begin(), full.end());
    if (full.size() != count || distinct.size() != count ||
        !std::is_sorted(full.begin(), full.end()) ||
        (count > 0 && full.back() >= n)) {
      return testing::AssertionFailure()
             << "not a sorted count-subset at n=" << n << " count=" << count;
    }
    std::vector<std::uint32_t> share;
    for (int parts = 1; parts <= 8; ++parts) {
      const data::Partition partition(n, parts);
      std::vector<std::uint32_t> joined;
      for (int p = 0; p < parts; ++p) {
        const std::uint64_t lo = partition.begin(p);
        const std::uint64_t hi = partition.end(p);
        sampler.sample(seed, stream, lo, hi, share);
        for (const auto offset : share) {
          if (offset >= hi - lo) {
            return testing::AssertionFailure()
                   << "offset outside its window at P=" << parts;
          }
          joined.push_back(static_cast<std::uint32_t>(lo + offset));
        }
      }
      if (joined != full) {
        return testing::AssertionFailure()
               << "P=" << parts << " shares differ from the 1-rank set at n="
               << n << " count=" << count;
      }
    }
    const std::uint64_t a = g.index(n + 1);
    const std::uint64_t b = a + g.index(n - a + 1);
    sampler.sample(seed, stream, a, b, share);
    std::vector<std::uint32_t> slice;
    for (const auto i : full) {
      if (i >= a && i < b) {
        slice.push_back(static_cast<std::uint32_t>(i - a));
      }
    }
    if (share != slice) {
      return testing::AssertionFailure()
             << "window [" << a << ", " << b << ") is not the set's slice";
    }
    return testing::AssertionSuccess();
  });
}

TEST(SplitTreeSampler, InclusionFrequenciesAreUniform) {
  // Over T streams each index of [0, n) is a member with probability
  // f = count / n, so h_i ~ Binomial(T, f).  X^2 = sum (h_i - Tf)^2 /
  // (T f (1 - f)) has mean n and standard deviation about
  // sqrt(n (2 + 1/(Tf))); the bound is the mean plus six of those.  The
  // shapes cover a single leaf and trees of sparse and dense leaves.
  struct Shape {
    std::uint64_t n, count, trials;
  };
  for (const Shape shape : {Shape{50, 10, 4000}, Shape{3000, 400, 2000},
                            Shape{20000, 20, 4000}, Shape{5000, 3500, 400},
                            Shape{29051, 5810, 200}}) {
    const SplitTreeSampler sampler(shape.n, shape.count);
    std::vector<double> hits(shape.n, 0.0);
    for (std::uint64_t t = 0; t < shape.trials; ++t) {
      for (const auto i : sampler.sample(77, t)) {
        hits[i] += 1.0;
      }
    }
    const double f = static_cast<double>(shape.count) /
                     static_cast<double>(shape.n);
    const double expected = static_cast<double>(shape.trials) * f;
    double chi2 = 0.0;
    for (const double h : hits) {
      chi2 += (h - expected) * (h - expected) / (expected * (1.0 - f));
    }
    const double n = static_cast<double>(shape.n);
    const double bound = n + 6.0 * std::sqrt(n * (2.0 + 1.0 / expected));
    EXPECT_LT(chi2, bound) << "n=" << shape.n << " count=" << shape.count;
  }
}

/// The hypergeometric law of |S n [0, marked)| for a uniform count-subset S
/// of [0, n).
struct Hypergeometric {
  double n, marked, count;
  [[nodiscard]] double mean() const { return count * marked / n; }
  [[nodiscard]] double var() const {
    return mean() * (n - marked) / n * (n - count) / (n - 1.0);
  }
  [[nodiscard]] double pmf(double x) const {
    return std::exp(std::lgamma(marked + 1) - std::lgamma(x + 1) -
                    std::lgamma(marked - x + 1) + std::lgamma(n - marked + 1) -
                    std::lgamma(count - x + 1) -
                    std::lgamma(n - marked - count + x + 1) -
                    std::lgamma(n + 1) + std::lgamma(count + 1) +
                    std::lgamma(n - count + 1));
  }
};

TEST(SplitTreeSampler, NodeSplitsFollowTheHypergeometricLaw) {
  // The root splits its count at n / 2 and its left child at n / 4, so the
  // members below each boundary are that node's hypergeometric draws (the
  // second unconditionally).  Over T streams the sample mean lies within
  // 5 sigma / sqrt(T) of the law's mean and the sample variance within
  // 5 sqrt(2 / (T - 1)) of its variance, relatively; at (1000, 600) the
  // root's counts also pass a chi-square test against the exact pmf (bins
  // with expected count >= 5, tails pooled, X^2 < dof + 6 sqrt(2 dof)).
  struct Shape {
    std::uint64_t n, count;
  };
  constexpr std::uint64_t kTrials = 4000;
  for (const Shape shape : {Shape{1000, 600}, Shape{700, 350}, Shape{10000, 1},
                            Shape{9000, 8999}, Shape{29051, 581},
                            Shape{29051, 5810}, Shape{1 << 20, 3000}}) {
    const SplitTreeSampler sampler(shape.n, shape.count);
    ASSERT_LT(sampler.leaf_size(), shape.n) << "the root must be a split";
    const std::uint64_t boundaries[] = {shape.n / 2, shape.n / 2 / 2};
    std::vector<double> counts[2];
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      const auto set = sampler.sample(2018, t);
      for (int b = 0; b < 2; ++b) {
        counts[b].push_back(static_cast<double>(
            std::lower_bound(set.begin(), set.end(), boundaries[b]) -
            set.begin()));
      }
    }
    for (int b = 0; b < 2; ++b) {
      const Hypergeometric law{static_cast<double>(shape.n),
                               static_cast<double>(boundaries[b]),
                               static_cast<double>(shape.count)};
      const double trials = static_cast<double>(kTrials);
      const double mean =
          std::accumulate(counts[b].begin(), counts[b].end(), 0.0) / trials;
      double ss = 0.0;
      for (const double c : counts[b]) {
        ss += (c - mean) * (c - mean);
      }
      const double var = ss / (trials - 1.0);
      EXPECT_NEAR(mean, law.mean(), 5.0 * std::sqrt(law.var() / trials))
          << "n=" << shape.n << " count=" << shape.count
          << " boundary=" << boundaries[b];
      EXPECT_NEAR(var / law.var(), 1.0, 5.0 * std::sqrt(2.0 / (trials - 1.0)))
          << "n=" << shape.n << " count=" << shape.count
          << " boundary=" << boundaries[b];
      if (shape.n != 1000 || b != 0) {
        continue;
      }
      // Chi-square of the root's split against the exact pmf.
      std::map<int, double> observed;
      for (const double c : counts[b]) {
        observed[static_cast<int>(c)] += 1.0;
      }
      double chi2 = 0.0;
      double pooled_expected = 0.0;
      double pooled_observed = 0.0;
      int dof = -1;
      for (int x = 0; x <= 500; ++x) {
        const double e = trials * law.pmf(x);
        if (e < 5.0) {
          pooled_expected += e;
          pooled_observed += observed[x];
          continue;
        }
        chi2 += (observed[x] - e) * (observed[x] - e) / e;
        ++dof;
      }
      chi2 += (pooled_observed - pooled_expected) *
              (pooled_observed - pooled_expected) / pooled_expected;
      ++dof;
      EXPECT_LT(chi2, dof + 6.0 * std::sqrt(2.0 * dof));
    }
  }
}

TEST(SplitTreeSampler, KeyedOnSeedAndStreamOnly) {
  const SplitTreeSampler sampler(29051, 581);
  const auto a = sampler.sample(42, 7);
  EXPECT_EQ(a, sampler.sample(42, 7));
  EXPECT_NE(a, sampler.sample(42, 8));
  EXPECT_NE(a, sampler.sample(43, 7));
  EXPECT_TRUE(SplitTreeSampler(10, 0).sample(1, 2).empty());
  const auto all = SplitTreeSampler(70, 70).sample(1, 2);
  ASSERT_EQ(all.size(), 70u);
  for (std::uint32_t i = 0; i < 70; ++i) {
    EXPECT_EQ(all[i], i);
  }
  EXPECT_THROW(SplitTreeSampler(10, 11), InvalidArgument);
  EXPECT_THROW(SplitTreeSampler((std::uint64_t{1} << 32) + 1, 1),
               InvalidArgument);
  std::vector<std::uint32_t> out;
  EXPECT_THROW(SplitTreeSampler(10, 3).sample(1, 2, 4, 11, out),
               InvalidArgument);
  EXPECT_THROW(SplitTreeSampler(10, 3).sample(1, 2, 5, 4, out),
               InvalidArgument);
}

TEST(SampleWithReplacement, Range) {
  Rng rng(21, 0);
  const auto sample = rng.sample_with_replacement(10, 1000);
  EXPECT_EQ(sample.size(), 1000u);
  for (auto v : sample) {
    EXPECT_LT(v, 10u);
  }
}

TEST(SampleWithReplacement, RejectsRangeBeyondUint32) {
  Rng rng(21, 0);
  EXPECT_THROW(rng.sample_with_replacement((std::uint64_t{1} << 32) + 1, 1),
               InvalidArgument);
  EXPECT_THROW(rng.sample_with_replacement(std::uint64_t{1} << 33, 1),
               InvalidArgument);
  // The top of the range still fits: every index in [0, 2^32) is a uint32.
  EXPECT_EQ(rng.sample_with_replacement(std::uint64_t{1} << 32, 64).size(),
            64u);
}

TEST(DeriveSeed, Decorrelates) {
  const auto a = derive_seed(42, 1);
  const auto b = derive_seed(42, 2);
  const auto c = derive_seed(43, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(42, 1));
}

TEST(Rng, UniformRandomBitGeneratorConcept) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  Rng rng(1, 2);
  std::vector<int> v{1, 2, 3, 4, 5};
  std::shuffle(v.begin(), v.end(), rng);  // must compile and terminate
  EXPECT_EQ(v.size(), 5u);
}

}  // namespace
}  // namespace rcf
