#include "dist/comm.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcf::dist {

namespace {

using detail::CompletedOp;

/// SeqComm's nonblocking op: a 1-rank reduction is an identity, so the op
/// is born complete.  The first wait() credits the payload as overlapped --
/// on one rank *all* reduction time is trivially hidden, which keeps the
/// seq/dist overlap accounting consistent (overlap efficiency 1.0).
class SeqOp final : public detail::PendingOp {
 public:
  SeqOp(CommStats* stats, std::size_t words) : stats_(stats), words_(words) {}
  void wait() override {
    if (stats_ != nullptr) {
      obs::TraceScope span("allreduce_wait");
      stats_->overlapped_words += words_;
      stats_ = nullptr;
    }
  }
  [[nodiscard]] bool test() override { return true; }

 private:
  CommStats* stats_;  ///< null once the first wait has credited overlap
  std::size_t words_;
};

}  // namespace

void publish_comm_stats(const CommStats& stats, const std::string& backend) {
  auto& registry = obs::MetricsRegistry::global();
  const std::string prefix = "comm." + backend + ".";
  registry.counter(prefix + "allreduce_calls").add(stats.allreduce_calls);
  registry.counter(prefix + "allreduce_words").add(stats.allreduce_words);
  registry.counter(prefix + "retries").add(stats.retries);
  registry.counter(prefix + "faults_injected").add(stats.faults_injected);
  registry.counter(prefix + "overlapped_words").add(stats.overlapped_words);
  auto& high_water = registry.gauge(prefix + "max_payload_words");
  if (static_cast<double>(stats.max_payload_words) > high_water.value()) {
    high_water.set(static_cast<double>(stats.max_payload_words));
  }
}

// A 1-rank aux collective is an identity that moves no data, so it records
// neither a span nor a count.
void SeqComm::allreduce_sum(std::span<double> inout, std::source_location) {
  if (aux_mode()) {
    return;
  }
  obs::TraceScope span("allreduce", static_cast<double>(inout.size()));
  stats_.count_allreduce(inout.size());
}

CommHandle SeqComm::iallreduce_sum(std::span<double> inout,
                                   std::source_location) {
  if (aux_mode()) {
    return CommHandle(std::make_shared<CompletedOp>());
  }
  obs::TraceScope span("allreduce_post", static_cast<double>(inout.size()));
  stats_.count_allreduce(inout.size());
  return CommHandle(std::make_shared<SeqOp>(&stats_, inout.size()));
}

}  // namespace rcf::dist
