// MPI-like communicator abstraction.
//
// The paper's implementation uses MPI 2.1 (MPI_Allreduce in stage C of
// Fig. 1).  MPI is not available in this build environment, so this module
// substitutes it with an interface plus two backends:
//
//  * SeqComm    -- the 1-rank world; collectives are counted identities.
//  * ThreadComm -- P ranks as std::threads in one process with real
//                  rendezvous allreduces (see thread_comm.hpp).  Exercises
//                  the genuine SPMD code path: partitioned data, partial
//                  Gram sums, allreduce agreement.
//
// Every collective the solvers run is a sum-allreduce, so the interface has
// two: blocking and posted.  Timing for large P comes from the
// alpha-beta-gamma cost model in src/model (see DESIGN.md "Substitutions");
// the communicator reports operation statistics so the model can be
// validated against the actual number of collective calls.
#pragma once

#include <cstdint>
#include <memory>
#include <source_location>
#include <span>
#include <string>

namespace rcf::dist {

namespace detail {

/// Completion state of one nonblocking collective.  Backends and decorators
/// subclass this; user code only ever sees it through CommHandle.
///
/// Contract: wait() blocks until the collective completes, rethrows its
/// failure, and is idempotent (later waits return immediately, rethrowing
/// the same failure).  test() is a non-blocking completion probe; errors
/// surface only at wait().  The payload data is only guaranteed to be in
/// the caller's buffer after a successful wait().
class PendingOp {
 public:
  virtual ~PendingOp() = default;
  PendingOp() = default;
  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;

  virtual void wait() = 0;
  [[nodiscard]] virtual bool test() = 0;
};

/// An op that completed inside the post call (every aux-mode post).
/// wait() is a no-op; the payload is already reduced in place.
class CompletedOp final : public PendingOp {
 public:
  void wait() override {}
  [[nodiscard]] bool test() override { return true; }
};

}  // namespace detail

/// Move-only handle to an in-flight nonblocking collective (the analogue of
/// MPI_Request).  Obtained from Communicator::iallreduce_sum; completed by
/// wait().  A default-constructed or moved-from handle is inert: wait() is
/// a no-op and test() reports complete.  Dropping a handle without waiting
/// abandons the result (the collective still executes so the SPMD schedule
/// stays symmetric) -- the caller's buffer is only updated by a successful
/// wait().  Handles must not outlive the communicator that issued them.
class CommHandle {
 public:
  CommHandle() = default;
  explicit CommHandle(std::shared_ptr<detail::PendingOp> op)
      : op_(std::move(op)) {}
  CommHandle(CommHandle&&) = default;
  CommHandle& operator=(CommHandle&&) = default;
  CommHandle(const CommHandle&) = delete;
  CommHandle& operator=(const CommHandle&) = delete;

  [[nodiscard]] bool valid() const { return op_ != nullptr; }
  /// Blocks until complete; rethrows the collective's failure.  Idempotent.
  void wait() {
    if (op_ != nullptr) {
      op_->wait();
    }
  }
  /// Non-blocking completion probe (true for inert handles).  Failures are
  /// reported by wait(), never here.
  [[nodiscard]] bool test() { return op_ == nullptr || op_->test(); }

  /// Backend/decorator access to the underlying op (for handle wrapping --
  /// a decorator composes by returning a new handle whose op delegates to
  /// this one).  Not part of the user-facing API.
  [[nodiscard]] const std::shared_ptr<detail::PendingOp>& op() const {
    return op_;
  }

 private:
  std::shared_ptr<detail::PendingOp> op_;
};

/// Counts of collective operations performed through a communicator.
/// `allreduce_calls` counts engine-space allreduces, blocking and posted
/// (aux-mode traffic is not counted); `allreduce_words` is their total
/// payload in doubles.
struct CommStats {
  std::uint64_t allreduce_calls = 0;
  std::uint64_t allreduce_words = 0;
  /// Largest payload (doubles) of any single collective call.
  std::uint64_t max_payload_words = 0;
  /// Collective attempts repeated after a TransientCommFailure (counted by
  /// the dist::RetryingComm decorator; see dist/retry.hpp).
  std::uint64_t retries = 0;
  /// Faults fired into this endpoint by the chaos layer (counted by
  /// fault::FaultyComm; 0 outside injected runs).
  std::uint64_t faults_injected = 0;
  /// Payload words of nonblocking collectives that had already completed
  /// when first waited on -- i.e. reduction wall time fully hidden behind
  /// the caller's compute.  Always <= allreduce_words; the ratio is the
  /// measured overlap efficiency the cost ledger reports.
  std::uint64_t overlapped_words = 0;

  /// Counts one engine-space allreduce (posted or blocking) of `words`.
  void count_allreduce(std::uint64_t words) {
    ++allreduce_calls;
    allreduce_words += words;
    max_payload_words = max_payload_words > words ? max_payload_words : words;
  }

  CommStats& operator+=(const CommStats& o) {
    allreduce_calls += o.allreduce_calls;
    allreduce_words += o.allreduce_words;
    retries += o.retries;
    faults_injected += o.faults_injected;
    overlapped_words += o.overlapped_words;
    max_payload_words = max_payload_words > o.max_payload_words
                            ? max_payload_words
                            : o.max_payload_words;
    return *this;
  }
};

/// Adds `stats` totals to the global obs::MetricsRegistry under
/// "comm.<backend>.*" counters/gauges (called by ThreadGroup::run after a
/// traced run; callable from benches for SeqComm too).
void publish_comm_stats(const CommStats& stats, const std::string& backend);

/// Abstract SPMD communicator: the two allreduces the solvers run.
class Communicator {
 public:
  virtual ~Communicator() = default;

  /// While an AuxScope is alive, collectives through this communicator are
  /// *auxiliary*: they still synchronize and combine data, but skip the
  /// CommStats accounting and emit their spans under "aux_collective" /
  /// "aux_wait" instead of "allreduce" / "allreduce_wait" (SeqComm, whose
  /// aux collectives move no data, emits none).  Used by the
  /// contract checker's epoch exchange (check::CheckedComm), so checking
  /// does not perturb the counters, span counts and span-derived latency
  /// quantiles of the solve (the "allreduce" span count must keep matching
  /// the solver schedule; see tests/test_obs_trace.cpp), and by the 1-rank
  /// world of a solve that opted out of tracing (core::RankWorld).
  class AuxScope {
   public:
    explicit AuxScope(Communicator& comm) : comm_(comm), prev_(comm.aux_) {
      comm_.aux_ = true;
    }
    AuxScope(const AuxScope&) = delete;
    AuxScope& operator=(const AuxScope&) = delete;
    ~AuxScope() { comm_.aux_ = prev_; }

   private:
    Communicator& comm_;
    bool prev_;
  };

  /// True while an AuxScope on this communicator is alive.
  [[nodiscard]] bool aux_mode() const { return aux_; }

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  // Every collective takes a defaulted std::source_location so the
  // contract checker (src/check) can name the *solver* call site in its
  // diagnostics.  Overrides repeat the default: default arguments resolve
  // against the static type, so calls through a concrete backend reference
  // still capture the caller's location.  Backends ignore the site when
  // checking is disabled.

  /// In-place sum-allreduce over all ranks (MPI_Allreduce, MPI_SUM).
  virtual void allreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) = 0;

  /// Nonblocking in-place sum-allreduce (MPI_Iallreduce analogue).  The
  /// returned handle completes the operation: `inout` must stay alive and
  /// untouched until wait() returns (backends snapshot the payload at post,
  /// so the *contents* at post time are what gets reduced; the result lands
  /// in `inout` at the first successful wait()).  Posts are collective:
  /// every rank must post the same sequence of operations, and every posted
  /// operation must eventually complete on every rank (wait it, or issue a
  /// later blocking collective, which quiesces the queue).
  virtual CommHandle iallreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) = 0;

  /// Statistics accumulated by this rank's endpoint.
  [[nodiscard]] virtual const CommStats& stats() const = 0;

 private:
  bool aux_ = false;  ///< set by AuxScope; each rank endpoint has its own.
};

/// Single-rank communicator: all collectives are local no-ops (but still
/// counted, so sequential runs produce the same statistics a 1-rank
/// distributed run would).
class SeqComm final : public Communicator {
 public:
  [[nodiscard]] int rank() const override { return 0; }
  [[nodiscard]] int size() const override { return 1; }
  void allreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  CommHandle iallreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  [[nodiscard]] const CommStats& stats() const override { return stats_; }

 private:
  CommStats stats_;
};

}  // namespace rcf::dist
