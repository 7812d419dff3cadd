#include "model/cost.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace rcf::model {

namespace {
double ceil_log2(int p) {
  RCF_CHECK_MSG(p >= 1, "collective cost: P must be >= 1");
  if (p == 1) {
    return 0.0;
  }
  return std::ceil(std::log2(static_cast<double>(p)));
}
}  // namespace

CollectiveModel collective_model_by_name(const std::string& name) {
  if (name == "paper" || name == "logp") return CollectiveModel::kPaperLogP;
  if (name == "rabenseifner" || name == "ring")
    return CollectiveModel::kRabenseifner;
  if (name == "tree") return CollectiveModel::kTree;
  throw InvalidArgument("unknown collective model: " + name);
}

std::string to_string(CollectiveModel model) {
  switch (model) {
    case CollectiveModel::kPaperLogP:
      return "paper-logP";
    case CollectiveModel::kRabenseifner:
      return "rabenseifner";
    case CollectiveModel::kTree:
      return "tree";
  }
  return "?";
}

CollectiveCost allreduce_cost(CollectiveModel model, int p,
                              std::uint64_t words) {
  const double lg = ceil_log2(p);
  const auto n = static_cast<double>(words);
  switch (model) {
    case CollectiveModel::kPaperLogP:
      return {lg, n * lg};
    case CollectiveModel::kRabenseifner:
      return {2.0 * lg, p > 1 ? 2.0 * n * (p - 1.0) / p : 0.0};
    case CollectiveModel::kTree:
      return {2.0 * lg, 2.0 * n * lg};
  }
  return {};
}

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kSampling:
      return "sampling";
    case Phase::kGram:
      return "gram";
    case Phase::kComm:
      return "comm";
    case Phase::kUpdate:
      return "update";
    case Phase::kOther:
      return "other";
  }
  return "?";
}

double CostTracker::flops() const {
  return std::accumulate(flops_.begin(), flops_.end(), 0.0);
}

double CostTracker::messages() const {
  return std::accumulate(messages_.begin(), messages_.end(), 0.0);
}

double CostTracker::words() const {
  return std::accumulate(words_.begin(), words_.end(), 0.0);
}

double CostTracker::mem_words() const {
  return std::accumulate(mem_words_.begin(), mem_words_.end(), 0.0);
}

double CostTracker::compute_seconds(const MachineSpec& spec) const {
  return spec.gamma * flops();
}

double CostTracker::latency_seconds(const MachineSpec& spec) const {
  return spec.alpha_effective() * messages();
}

double CostTracker::bandwidth_seconds(const MachineSpec& spec) const {
  return spec.beta * words();
}

double CostTracker::memory_seconds(const MachineSpec& spec) const {
  return spec.beta_mem * mem_words();
}

double CostTracker::seconds(const MachineSpec& spec) const {
  return compute_seconds(spec) + latency_seconds(spec) +
         bandwidth_seconds(spec) + memory_seconds(spec);
}

void CostTracker::reset() {
  flops_.fill(0.0);
  messages_.fill(0.0);
  words_.fill(0.0);
  mem_words_.fill(0.0);
}

CostTracker& CostTracker::operator+=(const CostTracker& other) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(kNumPhases); ++i) {
    flops_[i] += other.flops_[i];
    messages_[i] += other.messages_[i];
    words_[i] += other.words_[i];
    mem_words_[i] += other.mem_words_[i];
  }
  return *this;
}

}  // namespace rcf::model
