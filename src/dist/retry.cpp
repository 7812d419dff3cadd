#include "dist/retry.hpp"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace rcf::dist {

RetryingComm::RetryingComm(Communicator& inner, RetryPolicy policy)
    : inner_(inner),
      policy_(policy),
      backoff_counter_(
          obs::MetricsRegistry::global().counter("comm.backoff_us")) {
  RCF_CHECK_MSG(policy_.max_retries >= 0, "retry: max_retries must be >= 0");
  RCF_CHECK_MSG(policy_.backoff_us >= 0, "retry: backoff_us must be >= 0");
  RCF_CHECK_MSG(policy_.multiplier >= 1.0, "retry: multiplier must be >= 1");
}

void RetryingComm::note_retry(double& backoff) {
  ++retries_;
  obs::telemetry_publish(obs::TelemetryKind::kRetry, "retry",
                         static_cast<std::int64_t>(retries_));
  const auto sleep_us = static_cast<std::uint64_t>(backoff);
  if (sleep_us > 0) {
    backoff_counter_.add(sleep_us);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
  backoff *= policy_.multiplier;
}

template <typename Fn>
decltype(auto) RetryingComm::with_retries(Fn&& attempt) {
  std::optional<AuxScope> fwd;
  if (aux_mode()) {
    fwd.emplace(inner_);
  }
  double backoff = static_cast<double>(policy_.backoff_us);
  for (int tries = 0;; ++tries) {
    try {
      return attempt();
    } catch (const TransientCommFailure&) {
      if (tries >= policy_.max_retries) {
        throw;
      }
      note_retry(backoff);
    }
  }
}

/// Handle wrapper that absorbs TransientCommFailure thrown at completion
/// time (wait-stage fault injection): each retry re-enters the inner wait,
/// which is idempotent on success and re-evaluates the fault plan on
/// failure.  Other failures pass through untouched.
class RetryWaitOp final : public detail::PendingOp {
 public:
  RetryWaitOp(RetryingComm* owner, std::shared_ptr<detail::PendingOp> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  void wait() override {
    double backoff = static_cast<double>(owner_->policy_.backoff_us);
    for (int tries = 0;; ++tries) {
      try {
        inner_->wait();
        return;
      } catch (const TransientCommFailure&) {
        if (tries >= owner_->policy_.max_retries) {
          throw;
        }
        owner_->note_retry(backoff);
      }
    }
  }
  [[nodiscard]] bool test() override { return inner_->test(); }

 private:
  RetryingComm* owner_;
  std::shared_ptr<detail::PendingOp> inner_;
};

CommHandle RetryingComm::iallreduce_sum(std::span<double> inout,
                                        std::source_location site) {
  CommHandle inner =
      with_retries([&] { return inner_.iallreduce_sum(inout, site); });
  if (!inner.valid()) {
    return inner;
  }
  return CommHandle(std::make_shared<RetryWaitOp>(this, inner.op()));
}

void RetryingComm::allreduce_sum(std::span<double> inout,
                                 std::source_location site) {
  with_retries([&] { inner_.allreduce_sum(inout, site); });
}

const CommStats& RetryingComm::stats() const {
  merged_ = inner_.stats();
  merged_.retries += retries_;
  return merged_;
}

}  // namespace rcf::dist
