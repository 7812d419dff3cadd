// Intra-rank execution layer: a persistent, barrier-based thread pool with
// deterministic static partitioning.
//
// The paper's performance story leans on multithreaded MKL for the per-rank
// sampled-Gram and dense subproblem kernels; this subsystem is our
// substitute.  Design constraints (see DESIGN.md "Execution layer"):
//
//  * No work stealing, no dynamic scheduling: every dispatch runs one task
//    per pool thread and barriers before returning, so a kernel's work
//    assignment is a pure function of (problem size, pool width).
//  * Determinism contract: kernels built on the pool partition their
//    *output* ranges (H rows, y entries), never the reduction over input
//    terms.  Each output element therefore accumulates exactly the same
//    floating-point terms in exactly the sequential order regardless of
//    pool width -- results are bit-identical across 1/2/N threads, and
//    width 1 is literally the sequential code path.
//  * Oversubscription rule: `resolve_width(0, ranks)` divides the hardware
//    concurrency by the SPMD rank count, so ThreadComm ranks each running a
//    pool do not oversubscribe the node.
//  * Observability: a dispatch with a non-null label emits one obs span per
//    pool thread (worker threads inherit the submitting thread's SPMD
//    rank), so Chrome traces show intra-rank parallelism as parallel lanes
//    under one pid.
//
// The pool a kernel uses is ambient: solvers install one for the duration
// of a solve with PoolGuard, and kernels pick it up via current_pool().
// Pool worker threads themselves see no ambient pool, so accidental nested
// dispatch degrades to inline execution instead of deadlocking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rcf::obs {
class Counter;
}

namespace rcf::exec {

/// Half-open index range [begin, end).
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin >= end; }
};

/// Static blocked partition of [0, n): part `part` of `parts` contiguous
/// ranges, sizes differing by at most one.  Depends only on (n, parts).
[[nodiscard]] Range block_range(std::size_t n, int parts, int part);

/// Partition of the row index [0, n) of an upper-triangular n x n loop nest
/// (row i carries n - i inner iterations) into `parts` contiguous ranges of
/// approximately equal triangle area.  Depends only on (n, parts).  Used by
/// the Gram kernels, whose per-row work shrinks with the row index, and
/// (reversed) by the symmetrize, whose per-row work grows with it.
[[nodiscard]] Range triangle_range(std::size_t n, int parts, int part);

/// Persistent barrier-based thread pool of `width` threads: the owning
/// thread plus `width - 1` workers parked on a condition variable.  Width 1
/// spawns nothing and dispatches inline.
class Pool {
 public:
  /// Spawns width - 1 workers (width >= 1; throws InvalidArgument
  /// otherwise).
  explicit Pool(int width);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] int width() const { return width_; }

  /// Runs task(t) once for every t in [0, width); the caller executes
  /// t = 0, workers the rest, and run() returns only after every thread
  /// has finished (barrier semantics).  When `label` is non-null and the
  /// global trace session is enabled, each thread's task is recorded as
  /// one span under that label.  If tasks throw, the exception of the
  /// lowest thread index is rethrown after the barrier; the pool remains
  /// usable.
  void run(const char* label, const std::function<void(int)>& task);

  /// Resolves a requested width: > 0 is taken literally; 0 means the
  /// hardware concurrency divided by `ranks` (at least 1), so SPMD ranks
  /// running one pool each share the node without oversubscribing.
  [[nodiscard]] static int resolve_width(int requested, int ranks);

 private:
  void worker_main(int index);
  void run_slice(int index);

  int width_;
  obs::Counter& dispatches_;  ///< "exec.dispatches" (registry-owned)
  std::vector<std::exception_ptr> errors_;

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
  const std::function<void(int)>* task_ = nullptr;
  const char* label_ = nullptr;
  int submitter_rank_ = 0;

  std::vector<std::thread> workers_;  // last member: joined before the rest
};

/// The ambient pool of the calling thread (nullptr when none installed).
[[nodiscard]] Pool* current_pool();

/// Installs `pool` as the calling thread's ambient pool for the guard's
/// lifetime (restores the previous pool on destruction).  Passing nullptr
/// explicitly disables pooling in the guarded scope.
class PoolGuard {
 public:
  explicit PoolGuard(Pool* pool);
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;
  ~PoolGuard();

 private:
  Pool* previous_;
};

/// Minimum per-dispatch work (in flop-ish units) below which kernels skip
/// the pool: a dispatch costs a few microseconds of rendezvous, so tiny
/// kernels run inline.  Skipping never changes results (see the
/// determinism contract), only where they are computed.
inline constexpr std::uint64_t kParallelWorkCutoff = 1u << 15;

/// The ambient pool if it is worth dispatching `work_estimate` units onto
/// it, else nullptr (no pool installed, width 1, or work under the
/// cutoff).  The kernel-side gate: `if (auto* p = usable_pool(est)) ...`.
[[nodiscard]] inline Pool* usable_pool(std::uint64_t work_estimate) {
  Pool* pool = current_pool();
  return pool != nullptr && pool->width() > 1 &&
                 work_estimate >= kParallelWorkCutoff
             ? pool
             : nullptr;
}

/// Pool width requested by the RCF_THREADS environment variable, or
/// `fallback` when unset/unparseable.  (0 still means "auto": hardware
/// concurrency divided by the rank count at resolve time.)
[[nodiscard]] int threads_from_env(int fallback);

}  // namespace rcf::exec
