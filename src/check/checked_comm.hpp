// Backend-agnostic collective-contract decorator.
//
// CheckedComm wraps any dist::Communicator and maintains the same
// fingerprint stream the threaded backend's contract board checks per
// call -- but because a generic backend has no shared memory to compare
// fingerprints through, divergence is detected by *epoch exchange*: every
// `CheckOptions::epoch` engine-space collectives, the decorator sums a
// size()-word buffer under AuxScope in which each rank has put its rolling
// sequence hash in its own slot and zeros elsewhere.  Every slot of the
// sum has one nonzero term, so it is exact on any reduction schedule and
// every rank receives every rank's hash; a rank whose hash differs from
// any other throws ContractViolation naming each rank whose hash differs.
// AuxScope traffic -- the exchange itself -- lives in its own sequence
// space, so it can never alias engine collectives.
//
// On the threaded SPMD path this is belt and braces on top of the
// per-call board; on a future network backend (MPI) it is the only
// cross-rank check, which is why it piggybacks exclusively on collectives
// the schedule already performs plus one size()-word aux allreduce per
// epoch.
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
  /// Cross-checks the engine-space rolling hash (through `last`) across
  /// ranks; throws ContractViolation naming this rank and its hash, every
  /// rank whose hash differs and its hash, and the last collective's call
  /// site on divergence.
  void epoch_exchange(const Fingerprint& last);

  dist::Communicator& inner_;
  CheckOptions opts_;
  SequenceTracker tracker_;
  std::uint64_t engine_calls_ = 0;
  obs::Counter& exchanges_;  ///< "check.epoch_exchanges"
};

}  // namespace rcf::check
