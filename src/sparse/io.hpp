// Dataset file I/O in the LIBSVM format of the paper's benchmark datasets
// [9]: "<label> <idx>:<val> ..." one sample per line, 1-based feature
// indices.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace rcf::sparse {

/// A labelled sample matrix: X^T (m samples x d features) plus labels y.
struct LabelledMatrix {
  CsrMatrix xt;
  la::Vector y;
};

/// Reads a LIBSVM file.  `num_features` forces the feature dimension (0 =
/// infer from the maximum index seen).
[[nodiscard]] LabelledMatrix read_libsvm(const std::string& path,
                                         std::size_t num_features = 0);

/// Parses LIBSVM content from a stream (exposed for testing).
[[nodiscard]] LabelledMatrix read_libsvm_stream(std::istream& in,
                                                std::size_t num_features = 0);

/// Writes a LIBSVM file (1-based indices, %.17g values).
void write_libsvm(const std::string& path, const LabelledMatrix& data);

}  // namespace rcf::sparse
