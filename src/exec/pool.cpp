#include "exec/pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/perfctr.hpp"
#include "obs/trace.hpp"

namespace rcf::exec {

namespace {

thread_local Pool* tls_current_pool = nullptr;

}  // namespace

Range block_range(std::size_t n, int parts, int part) {
  RCF_DCHECK(parts >= 1 && part >= 0 && part < parts);
  const auto p = static_cast<std::size_t>(parts);
  const auto t = static_cast<std::size_t>(part);
  const std::size_t base = n / p;
  const std::size_t rem = n % p;
  const std::size_t begin = t * base + std::min(t, rem);
  const std::size_t size = base + (t < rem ? 1 : 0);
  return {begin, begin + size};
}

namespace {

/// Lower boundary of triangle part `part`: the b with area(0..b) closest to
/// part/parts of the full triangle, i.e. (n-b)(n-b+1)/2 = (1 - t/parts) *
/// n(n+1)/2.  Pure function of (n, parts, part).
std::size_t triangle_bound(std::size_t n, int parts, int part) {
  if (part <= 0) {
    return 0;
  }
  if (part >= parts) {
    return n;
  }
  const double total = 0.5 * static_cast<double>(n) *
                       (static_cast<double>(n) + 1.0);
  const double remaining =
      total * (1.0 - static_cast<double>(part) / static_cast<double>(parts));
  const double tail = std::floor(std::sqrt(2.0 * remaining));  // ~ n - b
  const double bound = static_cast<double>(n) - tail;
  if (bound <= 0.0) {
    return 0;
  }
  return std::min(n, static_cast<std::size_t>(bound));
}

}  // namespace

Range triangle_range(std::size_t n, int parts, int part) {
  RCF_DCHECK(parts >= 1 && part >= 0 && part < parts);
  // sqrt is monotone, so consecutive bounds are non-decreasing; a part can
  // come out empty for tiny n, which callers must tolerate.
  return {triangle_bound(n, parts, part), triangle_bound(n, parts, part + 1)};
}

Pool::Pool(int width)
    : width_(width),
      dispatches_(obs::MetricsRegistry::global().counter("exec.dispatches")) {
  RCF_CHECK_MSG(width >= 1, "exec::Pool: width must be >= 1");
  errors_.resize(static_cast<std::size_t>(width));
  obs::MetricsRegistry::global().gauge("exec.pool_width").set(width);
  workers_.reserve(static_cast<std::size_t>(width - 1));
  for (int i = 1; i < width; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void Pool::run_slice(int index) {
  try {
    if (label_ != nullptr) {
      obs::TraceScope span(label_);
      // Hardware-counter sampling for this kernel slice (gram.task,
      // sparse.spmv, ...); one relaxed load when RCF_PERFCTR is off.
      obs::PerfScope perf(label_);
      (*task_)(index);
    } else {
      (*task_)(index);
    }
  } catch (...) {
    errors_[static_cast<std::size_t>(index)] = std::current_exception();
  }
}

void Pool::run(const char* label, const std::function<void(int)>& task) {
  if (width_ == 1) {
    // Inline fast path: no rendezvous, but the same span + exception
    // surface as the threaded path.
    task_ = &task;
    label_ = label;
    errors_[0] = nullptr;
    run_slice(0);
    task_ = nullptr;
    if (errors_[0]) {
      std::exception_ptr err = errors_[0];
      errors_[0] = nullptr;
      std::rethrow_exception(err);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    label_ = label;
    submitter_rank_ = obs::thread_rank();
    std::fill(errors_.begin(), errors_.end(), nullptr);
    pending_ = width_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  run_slice(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
    task_ = nullptr;
  }
  dispatches_.add(1);
  for (auto& err : errors_) {
    if (err) {
      std::exception_ptr first = err;
      std::fill(errors_.begin(), errors_.end(), nullptr);
      std::rethrow_exception(first);
    }
  }
}

void Pool::worker_main(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    int rank = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      rank = submitter_rank_;
    }
    // Attribute this worker's spans to the submitting thread's SPMD rank,
    // so intra-rank tasks nest under the right pid in the Chrome trace.
    obs::set_thread_rank(rank);
    run_slice(index);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last = --pending_ == 0;
    }
    if (last) {
      cv_done_.notify_one();
    }
  }
}

int Pool::resolve_width(int requested, int ranks) {
  RCF_CHECK_MSG(requested >= 0, "exec::Pool: threads must be >= 0");
  if (requested > 0) {
    return requested;
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 1;
  }
  const unsigned per_rank = hw / static_cast<unsigned>(std::max(1, ranks));
  return static_cast<int>(std::max(1u, per_rank));
}

Pool* current_pool() { return tls_current_pool; }

PoolGuard::PoolGuard(Pool* pool) : previous_(tls_current_pool) {
  tls_current_pool = pool;
}

PoolGuard::~PoolGuard() { tls_current_pool = previous_; }

int threads_from_env(int fallback) {
  const char* env = std::getenv("RCF_THREADS");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 0 || value > 4096) {
    return fallback;
  }
  return static_cast<int>(value);
}

}  // namespace rcf::exec
