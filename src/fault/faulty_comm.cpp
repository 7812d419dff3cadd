#include "fault/faulty_comm.hpp"

#include <bit>
#include <chrono>
#include <limits>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "dist/retry.hpp"
#include "obs/telemetry.hpp"

namespace rcf::fault {

namespace {

void sleep_us(std::uint64_t us) {
  if (us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

}  // namespace

void FaultyComm::note_fault(const char* kind, std::uint64_t call) {
  ++injected_;
  obs::telemetry_publish(obs::TelemetryKind::kFault, kind,
                         static_cast<std::int64_t>(call));
}

FaultyComm::FaultyComm(dist::Communicator& inner, const FaultPlan* plan)
    : inner_(inner) {
  if (plan == nullptr) {
    return;
  }
  for (const FaultSpec& spec : plan->specs) {
    if (spec.kind == FaultKind::kIterAbort) {
      continue;  // driver-level faults; see fault::iteration_point.
    }
    if (spec.rank >= 0 && spec.rank != inner_.rank()) {
      continue;
    }
    if (spec.stage == FaultStage::kWait) {
      has_wait_specs_ = true;
    }
    armed_.push_back(Armed{spec, 0});
  }
}

bool FaultyComm::Armed::matches(std::uint64_t call) const {
  if (spec.count != 0 && fired >= spec.count) {
    return false;
  }
  if (spec.call.has_value()) {
    return call == *spec.call;
  }
  if (spec.every != 0) {
    return call % spec.every == 0;
  }
  return true;
}

void FaultyComm::before_collective(std::span<double> payload) {
  const std::uint64_t call = calls_;
  for (Armed& a : armed_) {
    if (a.spec.stage != FaultStage::kPost || !a.matches(call)) {
      continue;
    }
    switch (a.spec.kind) {
      case FaultKind::kDelay:
        ++a.fired;
        note_fault("delay", call);
        sleep_us(a.spec.us);
        break;
      case FaultKind::kSkew: {
        ++a.fired;
        note_fault("skew", call);
        // Each rank draws its own offset from the shared counter-based
        // stream, keyed on (seed, call, rank): deterministic, replayable.
        Rng rng(a.spec.seed,
                (call << 16) ^ static_cast<std::uint64_t>(inner_.rank()));
        sleep_us(rng.uniform_index(a.spec.us));
        break;
      }
      case FaultKind::kNanPoison: {
        if (payload.empty()) {
          break;  // stays armed for the next non-empty payload.
        }
        ++a.fired;
        note_fault("nan_poison", call);
        const std::size_t n =
            std::min<std::size_t>(a.spec.words, payload.size());
        for (std::size_t i = 0; i < n; ++i) {
          payload[i] = std::numeric_limits<double>::quiet_NaN();
        }
        break;
      }
      case FaultKind::kBitFlip: {
        if (a.spec.word >= payload.size()) {
          break;
        }
        ++a.fired;
        note_fault("bit_flip", call);
        auto bits = std::bit_cast<std::uint64_t>(payload[a.spec.word]);
        bits ^= std::uint64_t{1} << a.spec.bit;
        payload[a.spec.word] = std::bit_cast<double>(bits);
        break;
      }
      case FaultKind::kTransient:
        // Thrown *before* the inner communicator is touched: the attempt
        // never enters the rendezvous, so a retry re-issues this call
        // index and downstream sees exactly one collective.
        ++a.fired;
        note_fault("transient", call);
        throw dist::TransientCommFailure(
            "injected transient failure on rank " +
            std::to_string(inner_.rank()) + " at collective call " +
            std::to_string(call));
      case FaultKind::kAbort:
        ++a.fired;
        note_fault("abort", call);
        throw FaultAbort("injected abort on rank " +
                         std::to_string(inner_.rank()) +
                         " at collective call " + std::to_string(call));
      case FaultKind::kIterAbort:
        break;  // filtered out in the constructor.
    }
  }
}

void FaultyComm::before_wait(std::uint64_t call) {
  for (Armed& a : armed_) {
    if (a.spec.stage != FaultStage::kWait || !a.matches(call)) {
      continue;
    }
    switch (a.spec.kind) {
      case FaultKind::kDelay:
        ++a.fired;
        note_fault("delay", call);
        sleep_us(a.spec.us);
        break;
      case FaultKind::kSkew: {
        ++a.fired;
        note_fault("skew", call);
        Rng rng(a.spec.seed,
                (call << 16) ^ static_cast<std::uint64_t>(inner_.rank()));
        sleep_us(rng.uniform_index(a.spec.us));
        break;
      }
      case FaultKind::kTransient:
        // Thrown *before* the inner wait: the completion attempt failed
        // but the in-flight reduction is untouched, so re-waiting (which
        // dist::RetryingComm's wait path does) is safe and idempotent.
        ++a.fired;
        note_fault("transient", call);
        throw dist::TransientCommFailure(
            "injected transient completion failure on rank " +
            std::to_string(inner_.rank()) + " at collective call " +
            std::to_string(call));
      case FaultKind::kAbort:
        ++a.fired;
        note_fault("abort", call);
        throw FaultAbort("injected abort on rank " +
                         std::to_string(inner_.rank()) +
                         " while waiting collective call " +
                         std::to_string(call));
      default:
        break;  // corruption kinds are post-only (rejected by the parser).
    }
  }
}

/// Handle wrapper firing wait-stage faults against the in-flight
/// collective: every wait attempt first runs the plan for this op's call
/// index, then enters the inner wait.
class FaultWaitOp final : public dist::detail::PendingOp {
 public:
  FaultWaitOp(FaultyComm* owner, std::shared_ptr<dist::detail::PendingOp> inner,
              std::uint64_t call)
      : owner_(owner), inner_(std::move(inner)), call_(call) {}

  void wait() override {
    owner_->before_wait(call_);
    inner_->wait();
  }
  [[nodiscard]] bool test() override { return inner_->test(); }

 private:
  FaultyComm* owner_;
  std::shared_ptr<dist::detail::PendingOp> inner_;
  std::uint64_t call_;
};

dist::CommHandle FaultyComm::iallreduce_sum(std::span<double> inout,
                                            std::source_location site) {
  if (aux_mode()) {
    AuxScope fwd(inner_);
    return inner_.iallreduce_sum(inout, site);
  }
  before_collective(inout);
  dist::CommHandle handle = inner_.iallreduce_sum(inout, site);
  const std::uint64_t call = calls_++;
  if (!has_wait_specs_ || !handle.valid()) {
    return handle;
  }
  return dist::CommHandle(
      std::make_shared<FaultWaitOp>(this, handle.op(), call));
}

void FaultyComm::allreduce_sum(std::span<double> inout,
                               std::source_location site) {
  std::optional<AuxScope> fwd;
  if (aux_mode()) {
    fwd.emplace(inner_);
  } else {
    before_collective(inout);
  }
  inner_.allreduce_sum(inout, site);
  if (!aux_mode()) {
    ++calls_;
  }
}

const dist::CommStats& FaultyComm::stats() const {
  merged_ = inner_.stats();
  merged_.faults_injected += injected_;
  return merged_;
}

}  // namespace rcf::fault
