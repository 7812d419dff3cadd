// Cross-rank collective-contract board.
//
// The threaded communicator backend piggybacks a fingerprint exchange on
// every collective when checking is enabled: each rank publishes the
// Fingerprint of the call it is about to make into its board slot, all
// ranks rendezvous (with the shared stall timeout, so a rank that never
// issues the collective is reported as a deadlock instead of hanging the
// world), and every rank then compares its fingerprint against every
// slot *before any payload moves*.  Because all ranks see the identical
// slot array, a mismatch is detected symmetrically -- every rank throws
// the same ContractViolation naming the first disagreeing rank pair and
// both call sites -- and the corrupted collective never executes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fingerprint.hpp"
#include "check/options.hpp"
#include "check/rendezvous.hpp"
#include "common/error.hpp"

namespace rcf::obs {
class Counter;
}

namespace rcf::check {

/// Ranks disagreed about the collective being issued (kind, payload,
/// sequence position, or call site).
class ContractViolation : public Error {
 public:
  explicit ContractViolation(const std::string& what) : Error(what) {}
};

class ContractBoard {
 public:
  ContractBoard(int ranks, const CheckOptions& opts);

  /// Publishes `fp` for `rank`, rendezvouses with the other ranks, and
  /// cross-checks all published fingerprints.  Throws ContractViolation on
  /// mismatch (all ranks throw), CommTimeout if some rank never arrives
  /// within the stall timeout, or CommPoisoned after another rank failed.
  /// `seq` is the collective's span sequence number (-1 for aux traffic):
  /// for engine collectives the publish rendezvous is traced as a
  /// "contract_wait" span stamped with it, which the cross-rank timeline
  /// reads as this rank's arrival.
  void verify(int rank, const Fingerprint& fp, std::int64_t seq);

  /// Propagates an external failure (rank body exception) to all waiters.
  void poison(const std::string& reason) { barrier_.poison(reason); }

  /// Clears poison/arrival state between SPMD runs.
  void reset() { barrier_.reset(); }

  [[nodiscard]] int ranks() const { return ranks_; }

 private:
  int ranks_;
  CheckOptions opts_;
  std::vector<Fingerprint> slots_;
  TimedBarrier barrier_;
  obs::Counter& checked_;     ///< "check.collectives_checked"
  obs::Counter& violations_;  ///< "check.contract_violations"
};

}  // namespace rcf::check
