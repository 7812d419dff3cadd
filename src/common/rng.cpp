#include "common/rng.hpp"

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

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  key_ = {static_cast<std::uint32_t>(seed),
          static_cast<std::uint32_t>(seed >> 32)};
  counter_ = {static_cast<std::uint32_t>(stream),
              static_cast<std::uint32_t>(stream >> 32), 0u, 0u};
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

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // SplitMix64 finalizer over seed ^ rotated salt.
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace rcf
