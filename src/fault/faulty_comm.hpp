// FaultyComm: deterministic fault-injecting decorator over any
// dist::Communicator.
//
// Every engine-space collective on this endpoint is numbered (per rank,
// from 0) and matched against the active FaultPlan before it reaches the
// inner communicator:
//
//  * delay / skew    -- sleep, then forward (straggler simulation).
//  * nan / bitflip   -- corrupt this rank's *input* payload, then forward.
//                       The reduction spreads the corruption identically to
//                       every rank, so the engine's poison guard fires
//                       symmetrically (no divergent control flow).
//  * transient       -- throw dist::TransientCommFailure *without touching
//                       the inner communicator*: the failed attempt never
//                       enters the rendezvous, so a retry re-issues the
//                       collective exactly once downstream and the PR 4
//                       contract checker sees a clean schedule.
//  * abort           -- throw fault::FaultAbort (hard rank death).
//
// Aux-mode traffic (the contract checker's epoch exchange) is never
// faulted: chaos targets the solver schedule, not the checking.  With no
// active plan every collective forwards with one branch of overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/comm.hpp"
#include "fault/plan.hpp"

namespace rcf::fault {

class FaultyComm final : public dist::Communicator {
 public:
  /// Decorates `inner` (must outlive this object) with the faults of
  /// `plan` that target inner.rank().  `plan` may be nullptr (no faults);
  /// the typical call is FaultyComm(comm, fault::active_plan()).
  FaultyComm(dist::Communicator& inner, const FaultPlan* plan);

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void allreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  // Nonblocking posts: stage=post faults (the default) fire before the
  // inner post exactly like the blocking path -- a transient thrown here
  // never reaches the inner communicator, so a retried post stays clean
  // downstream.  stage=wait faults fire inside the returned handle's
  // wait(), against the in-flight collective; the call index they match is
  // the one assigned at post.
  dist::CommHandle iallreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override;
  /// Inner stats with this decorator's injection count folded in.
  [[nodiscard]] const dist::CommStats& stats() const override;

  /// Faults fired so far on this endpoint (delays, corruptions, throws).
  [[nodiscard]] std::uint64_t faults_injected() const { return injected_; }

 private:
  /// Counts an injected fault and announces it on the live telemetry bus
  /// (one relaxed load when the monitor is off).
  void note_fault(const char* kind, std::uint64_t call);

  /// Per-endpoint firing state for one matching spec.
  struct Armed {
    FaultSpec spec;
    std::uint64_t fired = 0;
    [[nodiscard]] bool matches(std::uint64_t call) const;
  };

  friend class FaultWaitOp;

  /// Applies the stage=post faults due at the current call index.
  /// `payload` is the mutable input buffer the corruption kinds write.
  /// Throws for transient/abort kinds; otherwise returns after any
  /// delays/corruption.
  void before_collective(std::span<double> payload);
  /// Applies the stage=wait faults matching `call` (re-evaluated on every
  /// wait attempt, so a retried wait counts down a spec's `count` budget
  /// the same way retried posts do).  Throws for transient/abort kinds.
  void before_wait(std::uint64_t call);

  dist::Communicator& inner_;
  std::vector<Armed> armed_;
  bool has_wait_specs_ = false;  ///< any armed spec with stage=wait.
  std::uint64_t calls_ = 0;     ///< completed engine-space collectives.
  std::uint64_t injected_ = 0;
  mutable dist::CommStats merged_;
};

}  // namespace rcf::fault
