#include "obs/metrics.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace rcf::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->value();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g->value();
  }
  return snap;
}

namespace {

std::uint64_t clamped_delta(std::uint64_t cur, std::uint64_t prev) {
  return cur >= prev ? cur - prev : cur;
}

}  // namespace

MetricsSnapshot delta_snapshot(const MetricsSnapshot& prev,
                               const MetricsSnapshot& cur) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : cur.counters) {
    const auto it = prev.counters.find(name);
    delta.counters[name] =
        it == prev.counters.end() ? value : clamped_delta(value, it->second);
  }
  delta.gauges = cur.gauges;
  return delta;
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    names.push_back(name);
  }
  return names;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  char buf[32];
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "" : ",") << '"' << json_escape(name) << "\":";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(c->value()));
    out << buf;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "" : ",") << '"' << json_escape(name) << "\":";
    std::snprintf(buf, sizeof(buf), "%.17g", g->value());
    out << buf;
    first = false;
  }
  out << "}}\n";
  return out.str();
}

bool MetricsRegistry::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->reset();
  }
  for (auto& [name, g] : gauges_) {
    g->reset();
  }
}

}  // namespace rcf::obs
