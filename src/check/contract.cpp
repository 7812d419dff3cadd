#include "check/contract.hpp"

#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcf::check {

ContractBoard::ContractBoard(int ranks, const CheckOptions& opts)
    : ranks_(ranks),
      opts_(opts),
      slots_(static_cast<std::size_t>(ranks)),
      barrier_(ranks),
      checked_(obs::MetricsRegistry::global().counter(
          "check.collectives_checked")),
      violations_(obs::MetricsRegistry::global().counter(
          "check.contract_violations")) {
  RCF_CHECK_MSG(ranks >= 1, "ContractBoard: ranks must be >= 1");
}

void ContractBoard::verify(int rank, const Fingerprint& fp,
                           std::int64_t seq) {
  obs::TraceScope span("check.contract");
  slots_[static_cast<std::size_t>(rank)] = fp;
  {
    // Publish rendezvous: a rank that never issues this collective is the
    // deadlock case; the stall timeout turns it into a CommTimeout naming
    // the missing ranks.  It also absorbs a straggler's lateness: the board
    // releases every rank together, so the collective's own publish wait
    // cannot see who was late.  The stamped span carries the arrival
    // instead.  Aux traffic is not aligned, so it gets none.
    std::optional<obs::TraceScope> wait;
    if (seq >= 0) {
      wait.emplace("contract_wait", 0.0, seq);
    }
    barrier_.arrive_and_wait(rank, opts_.timeout_ms, to_string(fp.kind));
  }
  checked_.add(1);
  for (int r = 0; r < ranks_; ++r) {
    const Fingerprint& theirs = slots_[static_cast<std::size_t>(r)];
    if (!theirs.matches(fp)) {
      violations_.add(1);
      std::string msg =
          "collective contract violation: rank " + std::to_string(rank) +
          " issued " + fp.describe() + " but rank " + std::to_string(r) +
          " issued " + theirs.describe();
      if (fp.rolling != theirs.rolling && fp.seq == theirs.seq &&
          fp.kind == theirs.kind && fp.words == theirs.words &&
          fp.site_hash == theirs.site_hash) {
        msg += " (current calls agree; the schedules diverged earlier)";
      }
      // Every rank sees the same slots, so every rank throws; no rank
      // proceeds to move data, and no second rendezvous is needed.
      throw ContractViolation(msg);
    }
  }
  // Release rendezvous: slots may be overwritten only after every rank
  // has finished comparing.
  barrier_.arrive_and_wait(rank, opts_.timeout_ms, "contract-release");
}

}  // namespace rcf::check
