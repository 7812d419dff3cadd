// Transient-failure retry decorator for dist::Communicator.
//
// A TransientCommFailure models a collective attempt that failed before
// any data moved (flaky transport, injected chaos fault): the attempt is
// safe to repeat because no rendezvous was entered.  RetryingComm absorbs
// such failures with bounded exponential backoff; the attempt that finally
// reaches the inner communicator is the only one the rendezvous (and the
// PR 4 contract checker) ever observes, so a retried collective is
// indistinguishable from a clean one downstream -- no fingerprint or epoch
// divergence, no double-counted CommStats.
//
// Retry accounting surfaces as CommStats::retries per rank and the global
// "comm.backoff_us" obs counter (total microseconds slept in backoff).
#pragma once

#include "common/error.hpp"
#include "dist/comm.hpp"

namespace rcf::obs {
class Counter;
}

namespace rcf::dist {

/// A collective attempt failed before entering the rendezvous; retrying
/// the call is safe and side-effect free.
class TransientCommFailure : public Error {
 public:
  explicit TransientCommFailure(const std::string& what) : Error(what) {}
};

/// Bounded exponential backoff for TransientCommFailure.
struct RetryPolicy {
  int max_retries = 3;      ///< additional attempts after the first.
  int backoff_us = 100;     ///< sleep before the first retry.
  double multiplier = 2.0;  ///< backoff growth per retry.
};

/// Decorator that retries collectives on TransientCommFailure.  The inner
/// communicator must outlive this object.  Exhausting the policy rethrows
/// the last failure to the caller (the engine turns it into a structured
/// SolveResult::failure).
class RetryingComm final : public Communicator {
 public:
  explicit RetryingComm(Communicator& inner, RetryPolicy policy = {});

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void allreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  // Nonblocking posts are retried like any collective (a transient at post
  // fires before the inner post, so repeating it is safe); the returned
  // handle additionally retries *at wait*, absorbing transients injected
  // on completion (fault::FaultStage::kWait) with the same backoff policy.
  CommHandle iallreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  /// Inner stats with this decorator's retry count folded in.
  [[nodiscard]] const CommStats& stats() const override;

  /// Collectives that needed at least one retry resolve here; total
  /// attempts beyond the first across all calls.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }

 private:
  friend class RetryWaitOp;

  /// Runs `attempt` under the policy and returns its result; forwards aux
  /// mode to the inner communicator for the duration.
  template <typename Fn>
  decltype(auto) with_retries(Fn&& attempt);
  /// One retry bookkeeping step: counts it, sleeps the current backoff,
  /// and grows it.  Shared by the call path and the wait path.
  void note_retry(double& backoff);

  Communicator& inner_;
  RetryPolicy policy_;
  std::uint64_t retries_ = 0;
  mutable CommStats merged_;
  obs::Counter& backoff_counter_;  ///< "comm.backoff_us"
};

}  // namespace rcf::dist
