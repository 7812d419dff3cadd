// Coordinate-format (triplet) entry: the input of CsrMatrix::from_triplets.
#pragma once

#include <cstdint>

namespace rcf::sparse {

/// One (row, col, value) entry.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

}  // namespace rcf::sparse
