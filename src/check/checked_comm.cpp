#include "check/checked_comm.hpp"

#include <cstdio>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcf::check {
namespace {

std::string to_hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Rolling hashes travel through a double-payload allreduce, so only the
/// low 52 bits are exchanged (exactly representable in a double).
constexpr std::uint64_t kHashMask = (std::uint64_t{1} << 52) - 1;

}  // namespace

CheckedComm::CheckedComm(dist::Communicator& inner, CheckOptions opts)
    : inner_(inner),
      opts_(opts),
      exchanges_(
          obs::MetricsRegistry::global().counter("check.epoch_exchanges")) {}

bool CheckedComm::track(CollectiveKind kind, std::uint64_t words,
                        const std::source_location& site, Fingerprint* fp) {
  const bool aux = aux_mode();
  *fp = tracker_.next(kind, words, aux, site);
  if (aux || opts_.epoch <= 0) return false;
  ++engine_calls_;
  return engine_calls_ % static_cast<std::uint64_t>(opts_.epoch) == 0;
}

void CheckedComm::epoch_exchange(const Fingerprint& last) {
  obs::TraceScope span("check.epoch");
  // Hash *through the due collective* (last.rolling), not the tracker's
  // current head: on the pipelined path later posts may already have
  // advanced the rolling hash by the time the epoch handle is waited, and
  // every rank must compare the same prefix.
  const std::uint64_t h = last.rolling & kHashMask;
  // Each rank's hash in its own slot, zeros elsewhere: every slot of the
  // sum has one nonzero term, so the sum is exact on any schedule.
  std::vector<double> hashes(static_cast<std::size_t>(inner_.size()), 0.0);
  hashes[static_cast<std::size_t>(inner_.rank())] = static_cast<double>(h);
  {
    dist::Communicator::AuxScope aux(inner_);
    inner_.allreduce_sum(hashes);
  }
  exchanges_.add(1);
  std::string differing;
  for (std::size_t r = 0; r < hashes.size(); ++r) {
    const auto other = static_cast<std::uint64_t>(hashes[r]);
    if (other != h) {
      differing += (differing.empty() ? "rank " : ", rank ") +
                   std::to_string(r) + " has " + to_hex(other);
    }
  }
  if (!differing.empty()) {
    obs::MetricsRegistry::global().counter("check.contract_violations").add(1);
    throw ContractViolation(
        "collective contract violation: rolling hash diverged across ranks "
        "by engine collective #" +
        std::to_string(engine_calls_) + " (rank " +
        std::to_string(inner_.rank()) + " has " + to_hex(h) +
        "; differing: " + differing + "); last collective on this rank was " +
        last.describe());
  }
}

/// Handle wrapper for a post that landed on an epoch boundary: the first
/// successful wait additionally runs the deferred hash exchange.  One-shot
/// -- a repeated wait must not re-exchange (the aux schedule would diverge
/// from ranks that waited once).
class EpochOp final : public dist::detail::PendingOp {
 public:
  EpochOp(CheckedComm* owner, std::shared_ptr<dist::detail::PendingOp> inner,
          const Fingerprint& fp)
      : owner_(owner), inner_(std::move(inner)), fp_(fp) {}

  void wait() override {
    inner_->wait();
    if (!exchanged_) {
      exchanged_ = true;
      owner_->epoch_exchange(fp_);
    }
  }
  [[nodiscard]] bool test() override { return inner_->test(); }

 private:
  CheckedComm* owner_;
  std::shared_ptr<dist::detail::PendingOp> inner_;
  Fingerprint fp_;
  bool exchanged_ = false;
};

dist::CommHandle CheckedComm::iallreduce_sum(std::span<double> inout,
                                             std::source_location site) {
  Fingerprint fp;
  const bool due =
      opts_.enabled &&
      track(CollectiveKind::kIallreduceSum, inout.size(), site, &fp);
  dist::CommHandle handle;
  {
    std::optional<dist::Communicator::AuxScope> fwd;
    if (aux_mode()) fwd.emplace(inner_);
    handle = inner_.iallreduce_sum(inout, site);
  }
  if (!due || !handle.valid()) {
    return handle;
  }
  return dist::CommHandle(std::make_shared<EpochOp>(this, handle.op(), fp));
}

void CheckedComm::allreduce_sum(std::span<double> inout,
                                std::source_location site) {
  Fingerprint fp;
  const bool due =
      opts_.enabled &&
      track(CollectiveKind::kAllreduceSum, inout.size(), site, &fp);
  {
    std::optional<dist::Communicator::AuxScope> fwd;
    if (aux_mode()) fwd.emplace(inner_);
    inner_.allreduce_sum(inout, site);
  }
  if (due) epoch_exchange(fp);
}

}  // namespace rcf::check
