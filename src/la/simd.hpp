// Portable SIMD primitives for the vectorized kernel backend.
//
// Built on the GCC/Clang vector-extension type (`vector_size`), which
// compiles to the widest available vector ISA at -O2/-O3 without
// intrinsics headers or target-specific code; a scalar struct fallback
// keeps other compilers building (bit-for-bit it IS the fixed-order
// contract, just slower).
//
// Determinism rules every user of this header must follow (DESIGN.md
// "Kernel backends"):
//
//  * Loads are position-based (memcpy), never alignment-steered: which
//    elements land in which lane depends only on the loop index, so the
//    lane assignment -- and therefore the rounding -- of one output
//    element is a pure function of the reduction length.
//  * Lane partials are combined ONLY through hsum(), whose association
//    ((l0+l1) + (l2+l3)) is fixed.  Combining lanes in any other order, or
//    summing per-thread partials, reassociates with runtime state and
//    breaks the bitwise width-invariance contract (rcf-analyze's
//    nondeterministic-reduction check flags width-dependent combines).
//  * Tail elements (n % kLanes) are folded sequentially after the lane
//    combine, again a pure function of n.
#pragma once

#include <cstddef>
#include <cstring>

namespace rcf::la::simd {

/// Lane count of the double vector.  Fixed at 4 (256-bit) independent of
/// the target ISA: the *numerical grouping* must not change across
/// machines, or replay files and golden fixtures would be host-dependent.
/// On 128-bit targets the compiler splits each op in two; on AVX-512 it
/// simply does not use the upper half.
inline constexpr std::size_t kLanes = 4;

#if defined(__GNUC__) || defined(__clang__)

using V4 = double __attribute__((vector_size(kLanes * sizeof(double))));

/// Unaligned position-based load of v[0..3].
inline V4 load4(const double* p) {
  V4 v;
  std::memcpy(&v, p, sizeof(V4));
  return v;
}

inline void store4(double* p, V4 v) { std::memcpy(p, &v, sizeof(V4)); }

inline V4 broadcast(double x) { return V4{x, x, x, x}; }

inline V4 zero4() { return V4{0.0, 0.0, 0.0, 0.0}; }

/// THE fixed-order lane combine: (l0 + l1) + (l2 + l3).
inline double hsum(V4 v) { return (v[0] + v[1]) + (v[2] + v[3]); }

#else  // scalar fallback: same grouping, same hsum association

struct V4 {
  double lane[kLanes];

  double operator[](std::size_t i) const { return lane[i]; }

  friend V4 operator+(V4 a, V4 b) {
    return {{a.lane[0] + b.lane[0], a.lane[1] + b.lane[1],
             a.lane[2] + b.lane[2], a.lane[3] + b.lane[3]}};
  }
  friend V4 operator*(V4 a, V4 b) {
    return {{a.lane[0] * b.lane[0], a.lane[1] * b.lane[1],
             a.lane[2] * b.lane[2], a.lane[3] * b.lane[3]}};
  }
  V4& operator+=(V4 o) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      lane[i] += o.lane[i];
    }
    return *this;
  }
};

inline V4 load4(const double* p) {
  V4 v;
  std::memcpy(v.lane, p, sizeof v.lane);
  return v;
}

inline void store4(double* p, V4 v) { std::memcpy(p, v.lane, sizeof v.lane); }

inline V4 broadcast(double x) { return {{x, x, x, x}}; }

inline V4 zero4() { return {{0.0, 0.0, 0.0, 0.0}}; }

inline double hsum(V4 v) {
  return (v.lane[0] + v.lane[1]) + (v.lane[2] + v.lane[3]);
}

#endif

/// Fixed-order dot product of x[0..n) and y[0..n): one 4-lane accumulator
/// over the n/4 main body, hsum, then the sequential tail.  The grouping is
/// a pure function of n.  This is the reduction primitive of the SIMD gemv
/// and dot paths.
inline double dot4(const double* x, const double* y, std::size_t n) {
  V4 acc = zero4();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    acc += load4(x + i) * load4(y + i);
  }
  double sum = hsum(acc);
  for (; i < n; ++i) {
    sum += x[i] * y[i];
  }
  return sum;
}

}  // namespace rcf::la::simd
