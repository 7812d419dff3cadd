#include "data/partition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcf::data {

Partition::Partition(std::size_t count, int parts) {
  RCF_CHECK_MSG(parts >= 1, "Partition: parts must be >= 1");
  const auto nparts = static_cast<std::size_t>(parts);
  offsets_.assign(nparts + 1, 0);
  const std::size_t base = count / nparts;
  const std::size_t extra = count % nparts;
  for (std::size_t p = 0; p < nparts; ++p) {
    offsets_[p + 1] = offsets_[p] + base + (p < extra ? 1 : 0);
  }
}

int Partition::owner(std::size_t i) const {
  RCF_CHECK_MSG(i < count(), "Partition::owner: index out of range");
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), i);
  return static_cast<int>(it - offsets_.begin()) - 1;
}

}  // namespace rcf::data
