// Seeded-bad fixture for the nondeterministic-reduction check, analyzed
// with scope_as=src/la/fixture_kernel.cpp so both the kernel-file rules
// (float, unordered iteration anywhere) and the parallel-body rules
// (shared accumulators) apply.  Each marker names its rule after the
// check -- float, unordered or shared -- so the same file also pins the
// whole-file scopes: float fires under src/dist/, unordered under src/obs/
// and tools/.
#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

struct Pool {
  void run(const char* label, const std::vector<double>& xs);
};
void parallel_for(Pool& pool, std::size_t n, const char* label,
                  const std::vector<double>& xs);

float unstable_norm(const std::vector<double>& xs);  // BAD(nondeterministic-reduction) float

double hash_order_sum(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) {  // BAD(nondeterministic-reduction) unordered
    total += kv.second;
  }
  return total;
}

double shared_accumulator(Pool& pool, const std::vector<double>& xs) {
  double sum = 0.0;
  parallel_for(pool, xs.size(), "bad-sum", [&](std::size_t i) {
    sum += xs[i];  // BAD(nondeterministic-reduction) shared
  });
  return sum;
}

double shared_member_accumulator(Pool& pool, const std::vector<double>& xs,
                                 std::vector<double>& out) {
  struct Stats {
    double total = 0.0;
  };
  Stats stats;
  parallel_for(pool, xs.size(), "bad-member", [&](std::size_t i) {
    stats.total += xs[i];  // BAD(nondeterministic-reduction) shared
    out[i] = xs[i];
  });
  return stats.total;
}

// Reordered SIMD reduction: the V4 accumulator lives OUTSIDE the parallel
// body, so blocks fold into it in pool-width-dependent order -- the lanes'
// fixed hsum cannot save a reduction whose block order reassociates.
struct V4 {
  double lane[4];
  V4& operator+=(const V4& o) {
    for (int l = 0; l < 4; ++l) {
      lane[l] += o.lane[l];
    }
    return *this;
  }
};

double shared_simd_accumulator(Pool& pool, const std::vector<V4>& xs) {
  V4 acc = {{0.0, 0.0, 0.0, 0.0}};
  parallel_for(pool, xs.size(), "bad-simd", [&](std::size_t i) {
    acc += xs[i];  // BAD(nondeterministic-reduction) shared
  });
  return (acc.lane[0] + acc.lane[1]) + (acc.lane[2] + acc.lane[3]);
}

// Collective-backend twin (src/dist/): rank contributions staged through
// float before they are combined.
void stage_contributions(const std::vector<double>& in,
                         std::vector<double>& out) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float staged = static_cast<float>(in[i]);  // BAD(nondeterministic-reduction) float
    out[i] += staged;
  }
}

// Metric-path twin (src/obs/): per-rank counters folded in hash order.
double fold_counters(const std::unordered_map<std::string, double>& counters) {
  double total = 0.0;
  for (auto it = counters.begin(); it != counters.end(); ++it) {  // BAD(nondeterministic-reduction) unordered
    total += it->second;
  }
  return total;
}

// Report twin (tools/): rows rendered in hash order.
std::string render_rows(const std::unordered_set<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {  // BAD(nondeterministic-reduction) unordered
    out += name;
  }
  return out;
}

}  // namespace fixture
