// In-memory spans and sample statistics for the traced run.
//
// A span carries a name, start, end and the span that caused it.  Spans
// stay in memory and are written once, when the benchmark ends.  A span's
// layer is its name up to the first '.', and a layer's self time is the
// time its spans cover minus the time their child spans cover.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the causing span, -1 for a root
};

class SpanLog {
 public:
  static SpanLog& global();

  /// Opens a span under `parent`; -1 means the innermost span this thread
  /// has open.  Returns its id.
  int open(std::string name, int parent = -1);
  void close(int id);
  /// Seconds the closed span `id` lasted.
  [[nodiscard]] double seconds(int id) const;

  struct LayerTime {
    double total_s = 0.0;  ///< summed span durations
    double self_s = 0.0;   ///< minus the durations of their children
    std::uint64_t spans = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// Writes every span as a Chrome trace-event JSON array.
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on SpanLog::global().
class SpanScope {
 public:
  explicit SpanScope(std::string name, int parent = -1);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope();
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

/// Runs `reps` spans named `name`, each covering `batch` calls of `fn`,
/// and returns the per-call time of each span in microseconds.
std::vector<double> time_calls(const std::string& name, int reps, int batch,
                               const std::function<void()>& fn);

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace perfbench
