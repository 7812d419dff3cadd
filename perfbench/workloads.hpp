// Workload table, set-up and the timed solve of the measured benchmark.
//
// Every workload is a closed loop with one client: the next solve starts
// when the previous one returns.  A solve is one call into the workload's
// public solver entry point with a fixed iteration budget, so the work per
// solve never depends on timing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rcf.hpp"

namespace perfbench {

enum class Driver {
  kSpmd,  ///< core::solve_rc_sfista_distributed over a dist::ThreadGroup
  kPn,    ///< core::solve_proximal_newton on one rank with an exec::Pool
};

/// One workload.  Every workload solves the covtype clone (kDataset at
/// kScale) at lambda = kLambdaRatio * lambda_max; pipelined solves run at
/// staleness 0, so their iterates stay bitwise equal to blocking ones.
struct WorkloadSpec {
  std::string name;
  Driver driver = Driver::kSpmd;
  rcf::la::Backend backend = rcf::la::Backend::kScalar;
  int ranks = 1;         ///< SPMD ranks (1 for PN)
  int pool_threads = 1;  ///< exec::Pool width per rank
  bool pipeline = false;
  double sampling_rate = 1.0;  ///< b (SPMD) or the PN Hessian sampling rate
  int k = 1;
  int s = 1;
  int iterations = 1;   ///< SPMD max_iters, or PN max_outer
  int inner_iters = 0;  ///< PN inner iterations per outer iteration
};

inline constexpr const char* kDataset = "covtype";
inline constexpr double kScale = 0.05;  ///< m = 29,051 rows, d = 54
/// lambda = kLambdaRatio * lambda_max (the bench harness default).
inline constexpr double kLambdaRatio = 0.01;
/// Relative objective error every solve must reach (the paper's §5 value).
inline constexpr double kTolerance = 0.01;
/// Set-ups per run; setup_s is their median.  A multiple of the 4 CPUs the
/// set-ups rotate over.
inline constexpr int kSetupReps = 16;

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Threads a solve of `spec` runs at once: rank threads, their pools, and
/// the progress thread each rank starts when it pipelines.
[[nodiscard]] int thread_count(const WorkloadSpec& spec);

/// Inputs built from the seed: what set-up produces.
struct Instance {
  std::unique_ptr<rcf::data::Dataset> dataset;
  std::unique_ptr<rcf::core::LassoProblem> problem;
  std::unique_ptr<rcf::dist::ThreadGroup> group;  ///< null for PN
};

/// Wall seconds of a set-up and of its two largest steps.
struct SetupTiming {
  double total_s = 0.0;
  double clone_s = 0.0;      ///< data::make_paper_clone
  double lipschitz_s = 0.0;  ///< LassoProblem::lipschitz
};

/// Builds the workload's inputs from `seed`: the clone, the lambda_max
/// probe problem, the problem at kLambdaRatio * lambda_max, its Lipschitz
/// constant and (SPMD) the thread group with explicit check options.
[[nodiscard]] Instance set_up(const WorkloadSpec& spec, std::uint64_t seed,
                              SetupTiming& timing);

[[nodiscard]] rcf::core::SolverOptions spmd_options(const WorkloadSpec& spec,
                                                    std::uint64_t seed,
                                                    bool trace);
[[nodiscard]] rcf::core::PnOptions pn_options(const WorkloadSpec& spec,
                                              std::uint64_t seed, bool trace);

/// One call into the workload's solver entry point.  The caller holds the
/// workload's la::ScopedBackend.
[[nodiscard]] rcf::core::SolveResult solve(const WorkloadSpec& spec,
                                           Instance& instance,
                                           std::uint64_t seed, bool trace);

/// The correctness gate.  A solve fails when it reports !ok(), when its
/// relative objective error against the reference optimum exceeds
/// kTolerance, or when its iterate is not bitwise equal to the first solve
/// the gate saw.
class Gate {
 public:
  explicit Gate(double f_star) : f_star_(f_star) {}
  /// Empty when the solve passes, else the reason it failed.
  [[nodiscard]] std::string check(const rcf::core::SolveResult& result);
  [[nodiscard]] double last_rel_error() const { return last_rel_error_; }

 private:
  double f_star_;
  std::vector<double> first_w_;
  bool have_first_ = false;
  double last_rel_error_ = 0.0;
};

/// Wall times of a closed loop of gated solves.
struct SolveSamples {
  std::vector<double> seconds;  ///< one per timed solve
  int attempted = 0;            ///< timed solves
  int failed = 0;               ///< timed solves the gate rejected
  bool warmup_ok = true;        ///< every discarded warm-up solve passed
  rcf::core::SolveResult last;  ///< the last solve's result
};

/// Runs `warmups` discarded solves, then timed solves until `budget_s` has
/// passed and at least `min_solves` were timed.  Every solve goes through
/// `gate`; failures are reported on stderr.  `between`, when set, runs
/// untimed before each timed solve with the seconds elapsed since the first.
[[nodiscard]] SolveSamples run_solves(
    const WorkloadSpec& spec, Instance& instance, std::uint64_t seed,
    Gate& gate, bool trace, int warmups, double budget_s, int min_solves,
    const std::function<void(double)>& between = {});

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run prints as its result line.
struct RunOutcome {
  bool correct = false;
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;
};

}  // namespace perfbench
