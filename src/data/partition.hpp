// Block partition of the sample dimension over P processors.
//
// The paper partitions X column-wise (by sample) and y row-wise (Fig. 1);
// rank p owns a contiguous block of samples.  The partition drives both the
// real SPMD execution (each ThreadComm rank slices its block) and the cost
// model's per-rank critical-path flop accounting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rcf::data {

class Partition {
 public:
  Partition() = default;

  /// Splits [0, count) into `parts` contiguous blocks whose sizes differ by
  /// at most one.
  Partition(std::size_t count, int parts);

  [[nodiscard]] int parts() const { return static_cast<int>(offsets_.size()) - 1; }
  [[nodiscard]] std::size_t count() const { return offsets_.back(); }

  [[nodiscard]] std::size_t begin(int part) const {
    return offsets_[static_cast<std::size_t>(part)];
  }
  [[nodiscard]] std::size_t end(int part) const {
    return offsets_[static_cast<std::size_t>(part) + 1];
  }
  [[nodiscard]] std::size_t size(int part) const {
    return end(part) - begin(part);
  }

  /// Which part owns global index i.
  [[nodiscard]] int owner(std::size_t i) const;

  [[nodiscard]] std::span<const std::size_t> offsets() const {
    return offsets_;
  }

 private:
  std::vector<std::size_t> offsets_{0};
};

}  // namespace rcf::data
