#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

thread_local std::vector<int> t_open;  // ids of this thread's open spans

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

int SpanLog::open(std::string name, int parent) {
  if (parent < 0 && !t_open.empty()) {
    parent = t_open.back();
  }
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  const std::int64_t t = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  if (!t_open.empty() && t_open.back() == id) {
    t_open.pop_back();
  }
}

double SpanLog::seconds(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::map<std::string, SpanLog::LayerTime> SpanLog::layer_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    LayerTime& lt = out[layer_of(spans_[i].name)];
    lt.total_s += dur;
    lt.self_s += dur - child_s[i];
    ++lt.spans;
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns - epoch) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << "{\"name\":\"" << s.name << buf << "\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

SpanScope::SpanScope(std::string name, int parent)
    : id_(SpanLog::global().open(std::move(name), parent)) {}

SpanScope::~SpanScope() { SpanLog::global().close(id_); }

std::vector<double> time_calls(const std::string& name, int reps, int batch,
                               const std::function<void()>& fn) {
  std::vector<double> per_call_us;
  per_call_us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    int id = 0;
    {
      SpanScope span(name);
      id = span.id();
      for (int b = 0; b < batch; ++b) {
        fn();
      }
    }
    per_call_us.push_back(SpanLog::global().seconds(id) * 1e6 / batch);
  }
  return per_call_us;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace perfbench
