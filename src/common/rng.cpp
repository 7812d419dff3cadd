#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace rcf {

namespace {

constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1

// Largest n whose indices [0, n) fit the samplers' uint32 output.
constexpr std::uint64_t kMaxSampleRange = std::uint64_t{1} << 32;

// A split-tree leaf covers at most kLeafMembers * n / count indices, so
// about kLeafMembers expected members, and at most kMaxLeaf, which sizes a
// leaf's bitmap and keeps its draws within 16 bits.
constexpr std::uint64_t kLeafMembers = 256;
constexpr std::uint64_t kMaxLeaf = 4096;

// Stadlober's ratio-of-uniforms hat: 2 sqrt(2/e) and 3 - 2 sqrt(3/e).
constexpr double kRouD1 = 1.7155277699214135;
constexpr double kRouD2 = 0.8989161620588988;

inline void philox_round(std::array<std::uint32_t, 4>& ctr,
                         const std::array<std::uint32_t, 2>& key) {
  const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * ctr[0];
  const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * ctr[2];
  const std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
  const std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
  const std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
  const std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
  ctr = {hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0};
}

}  // namespace

std::array<std::uint32_t, 4> Philox4x32::block(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) {
  for (int round = 0; round < 10; ++round) {
    philox_round(ctr, key);
    key[0] += kWeyl0;
    key[1] += kWeyl1;
  }
  return ctr;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : Rng(seed, stream, 0) {}

Rng::Rng(std::uint64_t seed, std::uint64_t stream, std::uint32_t substream) {
  key_ = {static_cast<std::uint32_t>(seed),
          static_cast<std::uint32_t>(seed >> 32)};
  counter_ = {static_cast<std::uint32_t>(stream),
              static_cast<std::uint32_t>(stream >> 32), 0u, substream};
  buffered_ = 0;
}

void Rng::refill() {
  buffer_ = Philox4x32::block(counter_, key_);
  buffered_ = 4;
  // Increment the 64-bit block index held in counter_[2..3].
  if (++counter_[2] == 0) {
    ++counter_[3];
  }
}

std::uint32_t Rng::next_u32() {
  if (buffered_ == 0) {
    refill();
  }
  return buffer_[static_cast<std::size_t>(--buffered_)];
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t hi = next_u32();
  const std::uint64_t lo = next_u32();
  return (hi << 32) | lo;
}

double Rng::uniform() {
  // 53 random bits scaled into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  RCF_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  RCF_CHECK_MSG(n > 0, "uniform_index: n must be positive");
  // Lemire-style rejection over uint64 to avoid modulo bias: reject r below
  // (2^64 - n) mod n.  That threshold is below n, so it is only computed for
  // the rare r < n; every larger r is accepted without the extra division.
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= n || r >= (~n + 1) % n) {
      return r % n;
    }
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller: two uniforms -> two normals.
  double u1 = uniform();
  while (u1 <= 0.0) {
    u1 = uniform();
  }
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::vector<std::uint32_t> Rng::sample_without_replacement(
    std::uint64_t n, std::uint64_t count) {
  RCF_CHECK_MSG(n <= kMaxSampleRange,
                "sample_without_replacement: n > 2^32 does not fit uint32");
  RCF_CHECK_MSG(count <= n, "sample_without_replacement: count > n");
  if (count == 0) {
    return {};
  }
  // The chosen set as an n-bit bitmap: membership is one bit, and scanning
  // the words in order emits the set sorted.
  std::vector<std::uint64_t> chosen((n + 63) / 64, 0);
  const auto mark = [&chosen](std::uint64_t i) {
    chosen[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  if (count * 3 >= n) {
    // Dense regime: partial Fisher-Yates over the full index range.
    std::vector<std::uint32_t> pool(n);
    std::iota(pool.begin(), pool.end(), 0u);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t j = i + uniform_index(n - i);
      std::swap(pool[i], pool[j]);
      mark(pool[i]);
    }
  } else {
    // Sparse regime: Floyd's algorithm, O(count) expected draws.  Every
    // earlier insert is below j, so j itself is never already chosen.
    for (std::uint64_t j = n - count; j < n; ++j) {
      const std::uint64_t t = uniform_index(j + 1);
      const bool taken = ((chosen[t / 64] >> (t % 64)) & 1u) != 0;
      mark(taken ? j : t);
    }
  }
  std::vector<std::uint32_t> out(count);
  std::size_t k = 0;
  for (std::size_t w = 0; w < chosen.size(); ++w) {
    for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      out[k++] = static_cast<std::uint32_t>(w * 64 + bit);
    }
  }
  return out;
}

std::vector<std::uint32_t> Rng::sample_with_replacement(std::uint64_t n,
                                                        std::uint64_t count) {
  RCF_CHECK_MSG(n > 0, "sample_with_replacement: n must be positive");
  RCF_CHECK_MSG(n <= kMaxSampleRange,
                "sample_with_replacement: n > 2^32 does not fit uint32");
  std::vector<std::uint32_t> out(count);
  for (auto& v : out) {
    v = static_cast<std::uint32_t>(uniform_index(n));
  }
  return out;
}

namespace {

/// Uniform draws in [0, range) for 0 < range <= 2^16 from 16-bit halves of
/// the generator's words, low half first (Lemire's multiply-shift, which
/// rejects the biased low products: at most range / 2^16 of the tries).
/// Rng::uniform_index spends 64 bits a draw, four times the Philox blocks,
/// and with it a one-rank tree draw is slower than the full-set
/// sample_without_replacement (BM_SplitTreeShare, BM_SampleAtSolverShapes).
class HalfWordIndex {
 public:
  explicit HalfWordIndex(Rng& rng) : rng_(rng) {}

  std::uint32_t operator()(std::uint32_t range) {
    std::uint32_t product = next() * range;
    if ((product & 0xFFFFu) < range) {
      const std::uint32_t threshold = (0x10000u - range) % range;
      while ((product & 0xFFFFu) < threshold) {
        product = next() * range;
      }
    }
    return product >> 16;
  }

 private:
  std::uint32_t next() {
    if (spare_) {
      spare_ = false;
      return word_ >> 16;
    }
    word_ = rng_.next_u32();
    spare_ = true;
    return word_ & 0xFFFFu;
  }

  Rng& rng_;
  std::uint32_t word_ = 0;
  bool spare_ = false;
};

/// The number of marked items among `draws` taken without replacement from
/// `marked` marked and `unmarked` unmarked ones, by Stadlober's
/// ratio-of-uniforms method for the hypergeometric law (the hat NumPy's
/// HRUA uses).  Its acceptance test u^2 <= p(x) / p(mode) is the product of
/// the pmf ratios walked out from the mode; past the mode every ratio is at
/// most 1, so a walk stops once the product falls below u^2.  Basic
/// operations and sqrt only.  Every ratio's integer factors fit 64 bits
/// for marked, unmarked <= 2^31 + 1.
std::uint64_t hypergeometric(Rng& rng, std::uint64_t marked,
                             std::uint64_t unmarked, std::uint64_t draws) {
  const std::uint64_t lo = draws > unmarked ? draws - unmarked : 0;
  const std::uint64_t hi = std::min(draws, marked);
  if (lo == hi) {
    return lo;
  }
  const std::uint64_t total = marked + unmarked;
  const std::uint64_t mode = (draws + 1) * (marked + 1) / (total + 2);
  const double n = static_cast<double>(total);
  const double mean = static_cast<double>(draws) * static_cast<double>(marked) / n;
  const double var = mean * (static_cast<double>(unmarked) / n) *
                     (static_cast<double>(total - draws) / (n - 1.0));
  const double center = mean + 0.5;
  const double width = kRouD1 * std::sqrt(var + 0.5) + kRouD2;
  // p(i + 1) / p(i) and p(i - 1) / p(i); each factor product is below 2^63,
  // so it converts as a signed integer (one instruction on x86-64).
  const auto real = [](std::uint64_t v) {
    return static_cast<double>(static_cast<std::int64_t>(v));
  };
  const auto up = [&](std::uint64_t i) {
    return real((marked - i) * (draws - i)) /
           real((i + 1) * (unmarked + i + 1 - draws));
  };
  const auto down = [&](std::uint64_t i) {
    return real(i * (unmarked + i - draws)) /
           real((marked - i + 1) * (draws - i + 1));
  };
  for (;;) {
    const double u = static_cast<double>((rng.next_u64() >> 11) + 1) *
                     0x1.0p-53;  // (0, 1]
    const double v = rng.uniform() - 0.5;
    const double x = center + width * v / u;
    if (!(x >= static_cast<double>(lo) && x < static_cast<double>(hi) + 1.0)) {
      continue;
    }
    const auto j = static_cast<std::uint64_t>(x);
    const double bound = u * u;
    double ratio = 1.0;
    for (std::uint64_t i = mode; i < j && ratio >= bound; ++i) {
      ratio *= up(i);
    }
    for (std::uint64_t i = mode; i > j && ratio >= bound; --i) {
      ratio *= down(i);
    }
    if (ratio >= bound) {
      return j;
    }
  }
}

/// One walk of a SplitTreeSampler over the window [lo, hi), writing the
/// members' offsets from lo at `next`.
struct TreeWalk {
  std::uint64_t seed;
  std::uint64_t stream;
  std::uint64_t leaf;
  std::uint64_t lo;
  std::uint64_t hi;
  std::uint32_t* next;

  /// Node `id` covers [begin, end) and holds `count` members.  A node that
  /// splits covers more than leaf >= 256 indices, so a leaf below the root
  /// covers at least 128 of at most 2^32 and ids stay below 2^26.
  void visit(std::uint64_t id, std::uint64_t begin, std::uint64_t end,
             std::uint64_t count) {
    if (count == 0 || end <= lo || begin >= hi) {
      return;
    }
    const std::uint64_t size = end - begin;
    if (count == size) {
      for (std::uint64_t i = std::max(begin, lo); i < std::min(end, hi); ++i) {
        *next++ = static_cast<std::uint32_t>(i - lo);
      }
      return;
    }
    Rng rng(seed, stream, static_cast<std::uint32_t>(id));
    if (size <= leaf) {
      draw_leaf(rng, begin, size, count);
      return;
    }
    const std::uint64_t half = size / 2;
    const std::uint64_t left = hypergeometric(rng, half, size - half, count);
    visit(2 * id, begin, begin + half, left);
    visit(2 * id + 1, begin + half, end, count - left);
  }

  /// Floyd's algorithm over the leaf's `size` indices into a bitmap, then
  /// its members in the window, in order.
  void draw_leaf(Rng& rng, std::uint64_t begin, std::uint64_t size,
                 std::uint64_t count) {
    std::array<std::uint64_t, kMaxLeaf / 64> bits{};
    HalfWordIndex index(rng);
    for (std::uint64_t j = size - count; j < size; ++j) {
      const std::uint64_t t = index(static_cast<std::uint32_t>(j + 1));
      const bool taken = ((bits[t / 64] >> (t % 64)) & 1u) != 0;
      const std::uint64_t pick = taken ? j : t;
      bits[pick / 64] |= std::uint64_t{1} << (pick % 64);
    }
    // Only a leaf the window cuts needs the bound checks.
    const bool inside = begin >= lo && begin + size <= hi;
    for (std::uint64_t w = 0; w < (size + 63) / 64; ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        const std::uint64_t i =
            begin + w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
        if (inside || (i >= lo && i < hi)) {
          *next++ = static_cast<std::uint32_t>(i - lo);
        }
      }
    }
  }
};

}  // namespace

SplitTreeSampler::SplitTreeSampler(std::uint64_t n, std::uint64_t count)
    : n_(n), count_(count), leaf_(kMaxLeaf) {
  RCF_CHECK_MSG(n <= kMaxSampleRange,
                "SplitTreeSampler: n > 2^32 does not fit uint32");
  RCF_CHECK_MSG(count <= n, "SplitTreeSampler: count > n");
  if (count > 0) {
    leaf_ = std::min((kLeafMembers * n + count - 1) / count, kMaxLeaf);
  }
}

void SplitTreeSampler::sample(std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t lo, std::uint64_t hi,
                              std::vector<std::uint32_t>& out) const {
  RCF_CHECK_MSG(lo <= hi && hi <= n_, "SplitTreeSampler: bad window");
  out.resize(std::min(count_, hi - lo));
  TreeWalk walk{seed, stream, leaf_, lo, hi, out.data()};
  walk.visit(1, 0, n_, count_);
  out.resize(static_cast<std::size_t>(walk.next - out.data()));
}

std::vector<std::uint32_t> SplitTreeSampler::sample(std::uint64_t seed,
                                                    std::uint64_t stream) const {
  std::vector<std::uint32_t> out;
  sample(seed, stream, 0, n_, out);
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // SplitMix64 finalizer over seed ^ rotated salt.
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace rcf
