// Counter-based pseudo-random number generation (Philox 4x32-10).
//
// Why counter-based: the RC-SFISTA iteration-overlapping proof (paper §3.2)
// and the Fig. 2(b) experiment both require that the random index set drawn
// at iteration n be a pure function of (seed, n) -- independent of the
// overlap parameter k, the Hessian-reuse parameter S, the number of ranks,
// and any previous draws.  A stateful generator (e.g. std::mt19937) cannot
// provide that without replaying; Philox gives O(1) random access to any
// point of the stream, which is also how all ranks of the distributed
// implementation agree on the sample set without communicating it.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace rcf {

/// Philox 4x32-10 block cipher (Salmon et al., SC'11).  Stateless: maps a
/// 128-bit counter and 64-bit key to 128 bits of output.
struct Philox4x32 {
  /// One 10-round Philox block.
  static std::array<std::uint32_t, 4> block(std::array<std::uint32_t, 4> ctr,
                                            std::array<std::uint32_t, 2> key);
};

/// A random stream addressed by (seed, stream).  `seed` is the experiment
/// seed; `stream` identifies the consumer (canonically the solver iteration
/// index) so that draws for iteration n never depend on draws for other
/// iterations.
class Rng {
 public:
  using result_type = std::uint32_t;

  Rng(std::uint64_t seed, std::uint64_t stream);

  /// UniformRandomBitGenerator interface (usable with <random> and
  /// std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next_u32(); }

  std::uint32_t next_u32();
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Unbiased (rejection sampling).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate (Box-Muller, cached pair).
  double normal();

  /// Normal deviate with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Sample `count` distinct indices uniformly from [0, n), sorted ascending.
  /// This is the paper's sampling matrix I_n (Alg. 4 line 4).
  ///
  /// The set is a fixed function of (seed, stream, n, count), defined by its
  /// draw sequence: Floyd's algorithm (one uniform_index(j + 1) for each j
  /// in [n - count, n)) when count * 3 < n, otherwise a partial Fisher-Yates
  /// (one uniform_index(n - i) for each i < count).  Every golden fixture
  /// depends on that sequence, so a faster implementation must make the same
  /// draws (SampleWithoutReplacement.MatchesReferenceDrawSequence).  Cost is
  /// O(count + n/64) with n/8 bytes of bitmap scratch; the Fisher-Yates
  /// regime also keeps its n-entry swap pool.  Requires count <= n <= 2^32.
  std::vector<std::uint32_t> sample_without_replacement(std::uint64_t n,
                                                        std::uint64_t count);

  /// Sample `count` indices uniformly from [0, n) with replacement (unsorted).
  /// Requires 0 < n <= 2^32.
  std::vector<std::uint32_t> sample_with_replacement(std::uint64_t n,
                                                     std::uint64_t count);

 private:
  void refill();

  std::array<std::uint32_t, 2> key_;
  std::array<std::uint32_t, 4> counter_;
  std::array<std::uint32_t, 4> buffer_;
  int buffered_ = 0;  // how many uint32 remain in buffer_
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Derives a child seed for a named subsystem from an experiment seed, so
/// that e.g. data generation and solver sampling use decorrelated streams.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace rcf
