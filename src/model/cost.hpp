// Cost accounting for the alpha-beta-gamma model.
//
// Solvers charge flops / messages / words as they run; the tracker converts
// the counters to simulated seconds under a MachineSpec.  Counters are kept
// per phase so benches can print the latency/bandwidth/flop breakdown of
// Table 1 and Eq. 24.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "model/machine.hpp"

namespace rcf::model {

/// How collective costs are charged.
enum class CollectiveModel {
  /// The paper's Table 1 model: an allreduce of n words on P processors
  /// costs L = ceil(log2 P) messages and W = n * ceil(log2 P) words.
  kPaperLogP,
  /// Rabenseifner / ring model: L = 2*ceil(log2 P), W = 2*n*(P-1)/P.
  kRabenseifner,
  /// Binomial-tree reduce + broadcast: L = 2*ceil(log2 P), W = 2*n*ceil(log2 P).
  kTree,
};

[[nodiscard]] CollectiveModel collective_model_by_name(const std::string& name);
[[nodiscard]] std::string to_string(CollectiveModel model);

/// Message/word cost of one allreduce of n words over P ranks.
struct CollectiveCost {
  double messages = 0.0;
  double words = 0.0;
};
[[nodiscard]] CollectiveCost allreduce_cost(CollectiveModel model, int p,
                                            std::uint64_t words);

/// Phases of the solver loop, for the breakdown printed by the benches.
enum class Phase : int {
  kSampling = 0,  ///< index-set generation (stage A)
  kGram = 1,      ///< local H/R accumulation (stage B)
  kComm = 2,      ///< allreduce (stage C)
  kUpdate = 3,    ///< vector recurrences / prox (stage D)
  kOther = 4,
};
inline constexpr int kNumPhases = 5;
[[nodiscard]] const char* phase_name(Phase phase);

/// Raw counters (flops / messages / words), one triple per phase.
class CostTracker {
 public:
  CostTracker() = default;
  explicit CostTracker(CollectiveModel model) : model_(model) {}

  void add_flops(Phase phase, double flops) {
    flops_[static_cast<std::size_t>(phase)] += flops;
  }
  /// Charges one allreduce of `words` doubles over `p` ranks.
  void add_allreduce(int p, std::uint64_t words) {
    const auto c = allreduce_cost(model_, p, words);
    messages_[static_cast<int>(Phase::kComm)] += c.messages;
    words_[static_cast<int>(Phase::kComm)] += c.words;
  }
  /// Free-form charge (used by baselines with other communication shapes).
  void add_comm(double messages, double words) {
    messages_[static_cast<int>(Phase::kComm)] += messages;
    words_[static_cast<int>(Phase::kComm)] += words;
  }
  /// Charges DRAM traffic for working sets that spill the cache (model
  /// extension; see MachineSpec::beta_mem).
  void add_mem_words(Phase phase, double words) {
    mem_words_[static_cast<std::size_t>(phase)] += words;
  }

  [[nodiscard]] double flops() const;
  [[nodiscard]] double messages() const;
  [[nodiscard]] double words() const;
  [[nodiscard]] double mem_words() const;
  [[nodiscard]] double flops(Phase phase) const {
    return flops_[static_cast<std::size_t>(phase)];
  }

  /// Simulated execution time
  ///   T = gamma*F + alpha_eff*L + beta*W + beta_mem*M  (Eq. 7 + extensions).
  [[nodiscard]] double seconds(const MachineSpec& spec) const;

  /// Individual terms of Eq. 7 (for breakdown tables).
  [[nodiscard]] double compute_seconds(const MachineSpec& spec) const;
  [[nodiscard]] double latency_seconds(const MachineSpec& spec) const;
  [[nodiscard]] double bandwidth_seconds(const MachineSpec& spec) const;
  [[nodiscard]] double memory_seconds(const MachineSpec& spec) const;

  void reset();

  CostTracker& operator+=(const CostTracker& other);

 private:
  CollectiveModel model_ = CollectiveModel::kPaperLogP;
  std::array<double, kNumPhases> flops_{};
  std::array<double, kNumPhases> messages_{};
  std::array<double, kNumPhases> words_{};
  std::array<double, kNumPhases> mem_words_{};
};

}  // namespace rcf::model
