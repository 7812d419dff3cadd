// Known-good fixture for the nondeterministic-reduction check, analyzed
// with scope_as=src/la/fixture_kernel_ok.cpp and under src/dist/, src/obs/
// and tools/: output-partitioned writes, body-local accumulators, and
// ordered containers must stay silent.
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace fixture {

struct Pool {
  void run(const char* label, const std::vector<double>& xs);
};
void parallel_for(Pool& pool, std::size_t n, const char* label,
                  const std::vector<double>& xs);

void partitioned_axpy(Pool& pool, std::vector<double>& out,
                      const std::vector<double>& xs, double alpha) {
  parallel_for(pool, out.size(), "ok-axpy", [&](std::size_t i) {
    out[i] += alpha * xs[i];  // indexed write into the output partition
  });
}

void blockwise_partial(Pool& pool, std::vector<double>& partials,
                       const std::vector<double>& xs) {
  parallel_for(pool, partials.size(), "ok-partial", [&](std::size_t b) {
    double local = 0.0;  // body-local accumulator, folded per block
    for (std::size_t j = b * 4; j < b * 4 + 4 && j < xs.size(); ++j) {
      local += xs[j];
    }
    partials[b] = local;  // one writer per slot
  });
}

// Stand-in for la::simd::V4 (the fixture corpus is lexed, not compiled
// against src/): four lanes combined only through a fixed-order hsum.
struct V4 {
  double lane[4];
  V4& operator+=(const V4& o) {
    for (int l = 0; l < 4; ++l) {
      lane[l] += o.lane[l];
    }
    return *this;
  }
};

void simd_blockwise_partial(Pool& pool, std::vector<double>& partials,
                            const std::vector<V4>& xs) {
  parallel_for(pool, partials.size(), "ok-simd", [&](std::size_t b) {
    V4 acc = {{0.0, 0.0, 0.0, 0.0}};  // body-local vector accumulator
    for (std::size_t j = b * 4; j < b * 4 + 4 && j < xs.size(); ++j) {
      acc += xs[j];  // lane order fixed by element position, not pool width
    }
    // Fixed combine (l0+l1)+(l2+l3); one writer per output slot.
    partials[b] = (acc.lane[0] + acc.lane[1]) + (acc.lane[2] + acc.lane[3]);
  });
}

double ordered_sum(const std::map<int, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) {
    total += kv.second;  // std::map iterates in key order: replayable
  }
  return total;
}

// Collective-backend twin (src/dist/): contributions combined in double.
void stage_contributions(const std::vector<double>& in,
                         std::vector<double>& out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double staged = in[i];
    out[i] += staged;
  }
}

// Metric-path twin (src/obs/): the hash map is only looked up; the fold
// follows a sorted name list.
double fold_counters(const std::unordered_map<std::string, double>& counters,
                     const std::vector<std::string>& sorted_names) {
  double total = 0.0;
  for (const std::string& name : sorted_names) {
    total += counters.at(name);
  }
  return total;
}

// Report twin (tools/): rows rendered from an ordered set.
std::string render_rows(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += name;
  }
  return out;
}

}  // namespace fixture
