// Runtime-selected kernel backend: scalar reference vs. explicitly
// vectorized (SIMD) implementations of the hot dense/sparse kernels.
//
// The scalar bodies are the reference semantics -- they are the loops the
// determinism contract, the cost model, and the golden fixtures were
// written against, and they never change.  The SIMD backend re-implements
// the same kernels with portable vector extensions (see la/simd.hpp) under
// two rules (DESIGN.md "Kernel backends"):
//
//  * Pool-width bitwise invariance is preserved: SIMD kernels partition the
//    same *output* ranges as the scalar ones, and within one output element
//    the lane accumulators are combined in a fixed order that depends only
//    on the reduction length -- never on the pool width or data alignment.
//    A kernel therefore produces bit-identical results at widths 1/2/N on
//    either backend.
//  * Scalar vs. SIMD results may legitimately differ: multi-lane
//    accumulators reassociate long reductions (gemv/spmv row dots, dot), so
//    cross-backend agreement is a tolerance contract, enforced by the
//    differential suite (tests/test_backend_diff.cpp).  Solver trajectories
//    are pinned per backend by their own golden fixtures.
//
// Selection is process-global: the RCF_BACKEND environment variable
// (scalar | simd) at first use, --backend on the benches, or set_backend()
// programmatically.  ScopedBackend gives tests a restoring override.
#pragma once

#include <atomic>
#include <string_view>

namespace rcf::la {

enum class Backend {
  kScalar = 0,  ///< reference loops (the seed implementation)
  kSimd = 1,    ///< vector-extension micro-kernels (la/simd.hpp)
};

/// Human-readable backend name ("scalar" / "simd").
[[nodiscard]] const char* backend_name(Backend b);

/// Parses a backend name; throws InvalidArgument on anything else.
[[nodiscard]] Backend parse_backend(std::string_view name);

/// The active backend.  Initialized once from RCF_BACKEND (unset or empty
/// means scalar; an unknown value throws on first query, so a typo cannot
/// silently fall back to the slow path).
[[nodiscard]] Backend active_backend();

/// Installs `b` as the process-global backend.
void set_backend(Backend b);

/// Backend requested by RCF_BACKEND, or `fallback` when unset/empty.
/// Throws InvalidArgument on an unknown value.
[[nodiscard]] Backend backend_from_env(Backend fallback);

/// Resolves and installs the process backend from an optional CLI value: a
/// non-empty `cli_value` wins, else RCF_BACKEND, else scalar.  Returns the
/// installed backend; throws InvalidArgument on an unknown name from either
/// source.  Shared by the bench mains' --backend flag.
Backend install_backend_from(std::string_view cli_value);

/// Scoped override: installs `b` for the guard's lifetime, restores the
/// previous backend on destruction.  Not for concurrent use across threads
/// (the backend is process-global); tests and benches switch it between
/// runs, never during one.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b);
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  ~ScopedBackend();

 private:
  Backend previous_;
};

}  // namespace rcf::la
