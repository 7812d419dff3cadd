#include "sparse/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace rcf::sparse {

namespace {

// Strict full-token numeric parsing.  The sto*/stream extractors accept
// trailing junk ("3x" parses as 3) and signed wraparound ("-3" parses as a
// huge unsigned), which turns corrupt files into silently misparsed data;
// from_chars either consumes the whole token or the token is rejected.

bool parse_full_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty()) {
    return false;
  }
  const auto* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_full_double(std::string_view token, double& out) {
  if (!token.empty() && token.front() == '+') {
    token.remove_prefix(1);  // from_chars rejects an explicit plus sign.
  }
  if (token.empty()) {
    return false;
  }
  const auto* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  // Overflowing values ("1e999") and the textual inf/nan forms are all
  // rejected: a dataset value the solver cannot compute with is a parse
  // error, not a number.
  return ec == std::errc{} && ptr == end && std::isfinite(out);
}

[[noreturn]] void libsvm_error(std::size_t line_no, const std::string& why) {
  throw IoError("libsvm parse error at line " + std::to_string(line_no) +
                ": " + why);
}

/// Rejects duplicate (row, col) coordinates: from_triplets sums duplicates,
/// so a corrupt file with a repeated entry would silently change values
/// instead of failing.
void reject_duplicates(std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  const auto dup = std::adjacent_find(
      triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
        return a.row == b.row && a.col == b.col;
      });
  if (dup != triplets.end()) {
    throw IoError("libsvm: duplicate entry at row " +
                  std::to_string(dup->row + 1) + ", column " +
                  std::to_string(dup->col + 1));
  }
}

}  // namespace

LabelledMatrix read_libsvm_stream(std::istream& in, std::size_t num_features) {
  std::vector<Triplet> triplets;
  std::vector<double> labels;
  std::size_t max_feature = 0;
  std::string line;
  std::string token;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    if (!(ls >> token)) {
      continue;  // blank or comment-only line
    }
    double label;
    if (!parse_full_double(token, label)) {
      libsvm_error(line_no, "bad label '" + token + "'");
    }
    const auto row = static_cast<std::uint32_t>(labels.size());
    labels.push_back(label);
    while (ls >> token) {
      const auto colon = token.find(':');
      if (colon == std::string::npos) {
        libsvm_error(line_no, "token '" + token + "' lacks ':'");
      }
      std::uint64_t idx;
      double value;
      if (!parse_full_u64(std::string_view(token).substr(0, colon), idx) ||
          !parse_full_double(std::string_view(token).substr(colon + 1),
                             value)) {
        libsvm_error(line_no, "bad token '" + token + "'");
      }
      if (idx == 0) {
        libsvm_error(line_no, "indices are 1-based");
      }
      if (idx > std::numeric_limits<std::uint32_t>::max()) {
        libsvm_error(line_no, "feature index " + std::to_string(idx) +
                                  " exceeds the supported range");
      }
      max_feature = std::max(max_feature, static_cast<std::size_t>(idx));
      triplets.push_back({row, static_cast<std::uint32_t>(idx - 1), value});
    }
  }
  const std::size_t d = num_features == 0 ? max_feature : num_features;
  if (num_features != 0 && max_feature > num_features) {
    throw IoError("libsvm: file has feature index " +
                  std::to_string(max_feature) + " > requested dimension " +
                  std::to_string(num_features));
  }
  reject_duplicates(triplets);
  LabelledMatrix out;
  out.xt = CsrMatrix::from_triplets(labels.size(), d, std::move(triplets));
  out.y = la::Vector(std::move(labels));
  return out;
}

LabelledMatrix read_libsvm(const std::string& path, std::size_t num_features) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open LIBSVM file: " + path);
  }
  return read_libsvm_stream(in, num_features);
}

void write_libsvm(const std::string& path, const LabelledMatrix& data) {
  RCF_CHECK_MSG(data.y.size() == data.xt.rows(),
                "write_libsvm: label count mismatch");
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot open for writing: " + path);
  }
  char buf[64];
  for (std::size_t r = 0; r < data.xt.rows(); ++r) {
    std::snprintf(buf, sizeof buf, "%.17g", data.y[r]);
    out << buf;
    const auto row = data.xt.row(r);
    for (std::size_t i = 0; i < row.nnz(); ++i) {
      std::snprintf(buf, sizeof buf, " %u:%.17g", row.cols[i] + 1, row.vals[i]);
      out << buf;
    }
    out << '\n';
  }
  if (!out) {
    throw IoError("write failed: " + path);
  }
}

}  // namespace rcf::sparse
