// Hardware performance counters via the raw perf_event_open(2) syscall:
// cycles, retired instructions, and LLC misses read as one counter group,
// for roofline rows (achieved FLOP/cycle, DRAM arithmetic intensity) on
// the kernel spans the solver is built from (gram.task, sparse.spmv,
// la.gemv; see bench_kernels --counters).
//
// Degradation contract: on kernels/containers where perf_event_open is
// unavailable (ENOSYS, EACCES under perf_event_paranoid, seccomp), the
// sampler constructs in a structured no-op state -- available() is false,
// error() names the reason, start()/stop() are cheap and return an invalid
// sample -- and never throws or crashes.  Non-Linux builds compile the
// same interface with the no-op behaviour.
//
// Overhead contract: a PerfScope with sampling disabled costs one bool
// test; opening the counter fds happens once per thread, not per scope.
#pragma once

#include <cstdint>
#include <string>

namespace rcf::obs {

class MetricsRegistry;

/// One delta read from the counter group.  `valid` is false when the
/// group could not be opened; individual counters that failed to open
/// (commonly LLC misses inside VMs) read as 0 with their *_ok flag false.
struct PerfSample {
  bool valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  bool llc_ok = false;
  /// Multiplexing context from the kernel; running < enabled means the
  /// counts are scaled estimates.
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;

  [[nodiscard]] double ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
};

/// A per-thread counter group (leader: cycles).  Not thread-safe; create
/// one per sampling thread.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when the group opened; error() explains a false.
  [[nodiscard]] bool available() const { return fd_cycles_ >= 0; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Zeroes and enables the group.  No-op when unavailable.
  void start();
  /// Disables the group and returns the accumulated deltas since start().
  /// Returns an invalid sample when unavailable.
  [[nodiscard]] PerfSample stop();

  /// One-time process probe: can a minimal counter be opened at all?
  [[nodiscard]] static bool supported();

 private:
  int fd_cycles_ = -1;
  int fd_instructions_ = -1;
  int fd_llc_ = -1;
  std::string error_;
};

/// Process-wide switch for PerfScope (off by default; RCF_PERFCTR=1 in the
/// environment enables it at first use, bench_kernels --counters enables
/// it programmatically).
void set_perf_scopes_enabled(bool enabled);
[[nodiscard]] bool perf_scopes_enabled();

/// RAII sampler around a labelled region.  When enabled, accumulates
///   perf.<label>.cycles / .instructions / .llc_misses / .samples
/// counters into the global MetricsRegistry on destruction (adds, so
/// repeated scopes under one label sum).  Scopes nest by ignoring the
/// inner scope (the per-thread group is already running).  One bool test
/// when disabled.
class PerfScope {
 public:
  explicit PerfScope(const char* label);
  ~PerfScope();
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  const char* label_ = nullptr;  ///< null = inert
};

}  // namespace rcf::obs
