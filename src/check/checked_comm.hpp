// Backend-agnostic collective-contract decorator.
//
// CheckedComm wraps any dist::Communicator and maintains the same
// fingerprint stream the threaded backend's contract board checks per
// call -- but because a generic backend has no shared memory to compare
// fingerprints through, divergence is detected by *epoch exchange*: every
// `CheckOptions::epoch` engine-space collectives, the decorator allreduces
// the rolling sequence hash (as {h, -h}, so one max-allreduce yields both
// the fleet max and min) under AuxScope and throws ContractViolation on
// the first epoch where any rank's hash differs.  AuxScope traffic --
// including the exchange itself -- lives in its own sequence space, so
// PR 3's metric aggregation can never alias engine collectives.
//
// On the threaded SPMD path this is belt and braces on top of the
// per-call board; on a future network backend (MPI) it is the only
// cross-rank check, which is why it piggybacks exclusively on collectives
// the schedule already performs plus one tiny aux allreduce per epoch.
#pragma once

#include "check/contract.hpp"
#include "check/fingerprint.hpp"
#include "check/options.hpp"
#include "dist/comm.hpp"

namespace rcf::obs {
class Counter;
}

namespace rcf::check {

class CheckedComm final : public dist::Communicator {
 public:
  /// Decorates `inner` (which must outlive this object).  When
  /// opts.enabled is false every collective forwards with zero added work.
  explicit CheckedComm(dist::Communicator& inner,
                       CheckOptions opts = effective_options());

  [[nodiscard]] bool enabled() const { return opts_.enabled; }

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void allreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  void allreduce_max(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  // Nonblocking posts are fingerprinted *at post time* (the post is the
  // schedule event: kIallreduceSum enters the engine sequence space the
  // moment it is issued, so a rank posting while another blocks is caught
  // as divergence).  When a post lands on an epoch boundary, the
  // hash exchange is deferred to the handle's first wait -- an aux
  // collective cannot run while the payload is still in flight -- and the
  // rolling hash compared is the one *through the due post*, so later
  // pipelined posts never blur the epoch.
  dist::CommHandle iallreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  [[nodiscard]] const dist::CommStats& stats() const override {
    return inner_.stats();
  }

 private:
  friend class EpochOp;

  /// Records the call in the tracker and returns whether an epoch
  /// exchange is due after it completes.
  bool track(CollectiveKind kind, std::uint64_t words,
             const std::source_location& site, Fingerprint* fp);
  /// Shared body of the blocking allreduces.
  void allreduce(std::span<double> inout, bool use_max,
                 const std::source_location& site);
  /// Cross-checks the engine-space rolling hash (through `last`) across
  /// ranks; throws ContractViolation naming this rank, the fleet hashes,
  /// and the last collective's call site on divergence.
  void epoch_exchange(const Fingerprint& last);

  dist::Communicator& inner_;
  CheckOptions opts_;
  SequenceTracker tracker_;
  std::uint64_t engine_calls_ = 0;
  obs::Counter& exchanges_;  ///< "check.epoch_exchanges"
};

}  // namespace rcf::check
