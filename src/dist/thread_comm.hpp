// Threaded SPMD communicator: P ranks as std::threads in one process.
//
// Collectives are real rendezvous operations over shared memory with two
// selectable reduction schedules:
//
//  * kCentral           -- all ranks publish, rank 0 reduces in rank order,
//                          everyone copies the result.  Deterministic, works
//                          for any P.  (Default.)
//  * kRecursiveDoubling -- log2(P) pairwise exchange stages, the schedule of
//                          classic MPI_Allreduce; at a P that is not a power
//                          of two it runs kCentral.
//                          Deterministic because each pair computes
//                          lower + upper in the same order on both sides.
//
// Both schedules are bitwise deterministic run-to-run, which the
// convergence experiments rely on.  They add in different orders, so their
// sums can differ in rounding: on 4 ranks contributing {1e16, 1, -1e16, 1},
// kCentral's ((1e16 + 1) - 1e16) + 1 gives 1 and kRecursiveDoubling's
// (1e16 + 1) + (-1e16 + 1) gives 0.
//
// Failure semantics: every rendezvous is a check::TimedBarrier bounded by
// the stall timeout of check::CheckOptions (RCF_COMM_TIMEOUT_MS; 0 waits
// forever), so a rank that never shows up is diagnosed as CommTimeout
// naming the missing ranks instead of hanging the world, and a rank whose
// SPMD body throws poisons the rendezvous so the surviving ranks fail fast
// with CommPoisoned.  With checking enabled (RCF_CHECK=1 or an explicit
// CheckOptions), every collective additionally exchanges a
// check::Fingerprint across ranks *before data moves* and throws
// check::ContractViolation on any schedule divergence (see src/check).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "check/fingerprint.hpp"
#include "check/options.hpp"
#include "dist/comm.hpp"

namespace rcf::dist {

enum class AllreduceAlgo {
  kCentral,
  kRecursiveDoubling,
};

namespace detail {
struct GroupState;
struct AsyncQueue;
class ThreadPendingOp;
}  // namespace detail

/// One rank's endpoint into a thread group.  Created by ThreadGroup::run;
/// valid only inside the SPMD body.
class ThreadComm final : public Communicator {
 public:
  ThreadComm(int rank, int size, detail::GroupState* state);
  /// Joins this endpoint's async progress thread (if one was started),
  /// draining any still-pending nonblocking collectives first so the other
  /// ranks' schedules stay matched even when a handle was dropped.
  ~ThreadComm() override;

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return size_; }
  void allreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  // Nonblocking allreduce: the post snapshots the payload, fingerprints and
  // counts it on the calling thread, then hands the reduction to this
  // endpoint's background progress thread (lazily started on first post;
  // it drives the same rendezvous schedule as the blocking path, so
  // in-flight ops of all ranks make progress without any rank waiting).
  // The result lands in `inout` at the first successful wait().  Blocking
  // collectives quiesce the queue first, so mixed programs keep every
  // rank's rendezvous generations aligned.
  CommHandle iallreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  [[nodiscard]] const CommStats& stats() const override { return stats_; }

 private:
  friend class detail::ThreadPendingOp;

  void allreduce_central(std::span<double> inout, std::int64_t seq,
                         bool timed = true);
  void allreduce_recursive_doubling(std::span<double> inout, std::int64_t seq,
                                    bool timed = true);
  /// Blocks until this endpoint's async queue is empty.  Every blocking
  /// collective calls this first: the SPMD programs are identical across
  /// ranks, so each rank quiesces at the same point of the global
  /// collective order and the rendezvous barrier never sees two threads of
  /// one rank at different generations.
  void quiesce();
  /// Runs one queued op's reduction (progress-thread context; spans are
  /// emitted under this endpoint's rank).
  void execute_async(detail::ThreadPendingOp& op);
  /// Progress-thread main loop: pops ops FIFO and executes them; drains
  /// the queue before honoring shutdown.
  void async_worker();
  /// Data-movement rendezvous (stall-timeout bounded).
  void rendezvous(const char* what);
  /// Contract-checker hook: fingerprints + cross-checks the collective
  /// about to execute; `seq` is its span sequence number (next_span_seq).
  /// No-op (one null test) when checking is off.
  void contract_check(check::CollectiveKind kind, std::size_t words,
                      std::int64_t seq, const std::source_location& site);
  /// Sequence number stamped on this collective's spans for the cross-rank
  /// timeline merge: the engine-space per-endpoint collective count (the
  /// same counting scheme check::SequenceTracker fingerprints), -1 in aux
  /// mode (aux spans are not aligned).
  [[nodiscard]] std::int64_t next_span_seq();

  int rank_;
  int size_;
  detail::GroupState* state_;
  CommStats stats_;
  check::SequenceTracker tracker_;
  std::int64_t collective_seq_ = 0;
  /// Async post queue + progress thread; null until the first post.
  /// shared_ptr because in-flight ops co-own the queue's synchronization
  /// primitives (a wait on a completed handle stays safe even mid-teardown).
  std::shared_ptr<detail::AsyncQueue> async_;
};

/// Owns the shared state of a thread world and launches SPMD bodies.
class ThreadGroup {
 public:
  /// `check` controls the rendezvous stall timeout and the per-collective
  /// contract checker; the default reflects RCF_CHECK / RCF_COMM_TIMEOUT_MS
  /// (see check::effective_options).
  explicit ThreadGroup(int size, AllreduceAlgo algo = AllreduceAlgo::kCentral,
                       check::CheckOptions check = check::effective_options());
  ~ThreadGroup();

  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  [[nodiscard]] int size() const { return size_; }

  /// Runs `body(comm)` on `size` threads, one rank each, and joins them.
  /// If any rank throws, the first primary exception (by rank order,
  /// skipping secondary CommPoisoned failures) is rethrown after all ranks
  /// have been joined.  A throwing rank poisons the rendezvous, so the
  /// other ranks abort promptly instead of deadlocking.
  void run(const std::function<void(ThreadComm&)>& body);

  /// Stats summed over all ranks of the last run().
  [[nodiscard]] CommStats last_run_stats() const { return last_stats_; }

 private:
  int size_;
  AllreduceAlgo algo_;
  std::unique_ptr<detail::GroupState> state_;
  CommStats last_stats_;
};

}  // namespace rcf::dist
