// Tests for the nonblocking collective layer: handle post/wait/test
// semantics on both backends, mixing with blocking collectives (quiesce),
// decorator composition over handles (Checked o Retrying o Faulty), and the
// chunk-pipelined distributed solve (bitwise-identical to blocking at
// staleness 0; deterministic under bounded staleness).
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "check/checked_comm.hpp"
#include "common/error.hpp"
#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "dist/comm.hpp"
#include "dist/retry.hpp"
#include "dist/thread_comm.hpp"
#include "fault/faulty_comm.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "obs/trace.hpp"

namespace rcf::dist {
namespace {

// ---------------------------------------------------------------------------
// SeqComm: the single-rank degradation still honours the handle contract.
// ---------------------------------------------------------------------------

TEST(SeqCommAsync, PostWaitTest) {
  SeqComm comm;
  std::vector<double> buf{1.0, 2.0, 3.0};
  CommHandle h = comm.iallreduce_sum(buf);
  EXPECT_TRUE(h.valid());
  EXPECT_TRUE(h.test());
  h.wait();
  h.wait();  // idempotent
  EXPECT_DOUBLE_EQ(buf[0], 1.0);
  EXPECT_EQ(comm.stats().allreduce_calls, 1u);
  EXPECT_EQ(comm.stats().allreduce_words, 3u);
  // A 1-rank reduction is complete at post, so the whole payload counts as
  // overlapped once waited.
  EXPECT_EQ(comm.stats().overlapped_words, 3u);
}

TEST(SeqCommAsync, DefaultConstructedHandleIsInert) {
  CommHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_TRUE(h.test());
  h.wait();  // no-op
}

// ---------------------------------------------------------------------------
// ThreadComm: real asynchronous completion through the progress thread.
// ---------------------------------------------------------------------------

class ThreadCommAsync : public ::testing::TestWithParam<AllreduceAlgo> {};

TEST_P(ThreadCommAsync, PostWaitSum) {
  for (int ranks : {1, 2, 4}) {
    ThreadGroup group(ranks, GetParam());
    group.run([&](ThreadComm& comm) {
      std::vector<double> buf(8);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = comm.rank() + static_cast<double>(i);
      }
      CommHandle h = comm.iallreduce_sum(buf);
      ASSERT_TRUE(h.valid());
      h.wait();
      const double rank_sum = ranks * (ranks - 1) / 2.0;
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_DOUBLE_EQ(buf[i], rank_sum + ranks * static_cast<double>(i));
      }
    });
    // Posts are counted at post time, once per rank.
    EXPECT_EQ(group.last_run_stats().allreduce_calls,
              static_cast<std::uint64_t>(ranks));
  }
}

TEST_P(ThreadCommAsync, OutOfOrderWaits) {
  ThreadGroup group(4, GetParam());
  group.run([](ThreadComm& comm) {
    std::vector<double> a{static_cast<double>(comm.rank())};
    std::vector<double> b{10.0 * comm.rank()};
    CommHandle ha = comm.iallreduce_sum(a);
    CommHandle hb = comm.iallreduce_sum(b);
    // Completion order is FIFO internally, but waits may come in any
    // order: waiting b first simply rides on a's completion.
    hb.wait();
    ASSERT_DOUBLE_EQ(b[0], 60.0);
    ha.wait();
    ASSERT_DOUBLE_EQ(a[0], 6.0);
  });
}

TEST_P(ThreadCommAsync, BlockingCollectiveQuiescesInFlightPosts) {
  ThreadGroup group(4, GetParam());
  group.run([](ThreadComm& comm) {
    std::vector<double> async_buf{1.0};
    std::vector<double> sync_buf{2.0};
    CommHandle h = comm.iallreduce_sum(async_buf);
    // The blocking collective drains the in-flight post on every rank
    // before entering its own rendezvous, so mixing the two APIs cannot
    // interleave two collectives of one rank.
    comm.allreduce_sum(sync_buf);
    ASSERT_DOUBLE_EQ(sync_buf[0], 8.0);
    h.wait();
    ASSERT_DOUBLE_EQ(async_buf[0], 4.0);
  });
}

TEST_P(ThreadCommAsync, DroppedHandleLeavesBufferUntouched) {
  ThreadGroup group(2, GetParam());
  group.run([](ThreadComm& comm) {
    std::vector<double> dropped{5.0};
    { CommHandle h = comm.iallreduce_sum(dropped); }  // abandoned
    // The collective still executes (the schedule stays symmetric), but
    // the result is only delivered by a successful wait.
    std::vector<double> follow{1.0};
    comm.allreduce_sum(follow);
    ASSERT_DOUBLE_EQ(dropped[0], 5.0);
    ASSERT_DOUBLE_EQ(follow[0], 2.0);
  });
}

TEST_P(ThreadCommAsync, TestEventuallyCompletesWithoutWaitBlocking) {
  ThreadGroup group(2, GetParam());
  group.run([](ThreadComm& comm) {
    std::vector<double> buf{1.0};
    CommHandle h = comm.iallreduce_sum(buf);
    while (!h.test()) {
    }
    // Already complete: this wait cannot block and must credit overlap.
    h.wait();
    ASSERT_DOUBLE_EQ(buf[0], 2.0);
  });
  EXPECT_EQ(group.last_run_stats().overlapped_words, 2u);
}

TEST_P(ThreadCommAsync, DeterministicAcrossRuns) {
  std::vector<double> first;
  for (int trial = 0; trial < 3; ++trial) {
    ThreadGroup group(4, GetParam());
    std::vector<double> captured;
    group.run([&](ThreadComm& comm) {
      std::vector<double> buf(8);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = 0.1 * (comm.rank() + 1) + 1e-9 * static_cast<double>(i);
      }
      CommHandle h = comm.iallreduce_sum(buf);
      h.wait();
      if (comm.rank() == 0) {
        captured = buf;
      }
    });
    if (trial == 0) {
      first = captured;
    } else {
      ASSERT_EQ(captured, first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, ThreadCommAsync,
                         ::testing::Values(AllreduceAlgo::kCentral,
                                           AllreduceAlgo::kRecursiveDoubling));

// ---------------------------------------------------------------------------
// Decorator composition over handles.
// ---------------------------------------------------------------------------

TEST(AsyncDecorators, CheckedRetryingFaultyCompose) {
  // A wait-stage transient on rank 1 must be absorbed by RetryingComm's
  // wait path (re-waiting an in-flight op is idempotent), and the contract
  // checker above must see a clean, symmetric schedule.
  const fault::FaultPlan plan =
      fault::parse_fault_plan("transient:rank=1,call=0,stage=wait");
  std::atomic<std::uint64_t> retries{0};
  ThreadGroup group(4);
  group.run([&](ThreadComm& comm) {
    fault::FaultyComm faulty(comm, &plan);
    RetryPolicy policy;
    policy.backoff_us = 1;
    RetryingComm retrying(faulty, policy);
    check::CheckedComm checked(retrying);
    std::vector<double> buf{1.0};
    CommHandle h = checked.iallreduce_sum(buf);
    h.wait();
    ASSERT_DOUBLE_EQ(buf[0], 4.0);
    retries.fetch_add(retrying.retries());
  });
  EXPECT_EQ(retries.load(), 1u);
}

TEST(AsyncDecorators, WaitStageAbortSurfaces) {
  const fault::FaultPlan plan =
      fault::parse_fault_plan("abort:rank=0,call=0,stage=wait");
  ThreadGroup group(2);
  EXPECT_THROW(group.run([&](ThreadComm& comm) {
    fault::FaultyComm faulty(comm, &plan);
    std::vector<double> buf{1.0};
    CommHandle h = faulty.iallreduce_sum(buf);
    h.wait();
  }),
               fault::FaultAbort);
}

TEST(AsyncDecorators, PostStageTransientRetriesThePostItself) {
  // stage=post (the default) still fires before the inner post, so the
  // retry wraps the *post* and downstream sees exactly one collective.
  const fault::FaultPlan plan =
      fault::parse_fault_plan("transient:rank=2,call=0");
  ThreadGroup group(4);
  group.run([&](ThreadComm& comm) {
    fault::FaultyComm faulty(comm, &plan);
    RetryPolicy policy;
    policy.backoff_us = 1;
    RetryingComm retrying(faulty, policy);
    std::vector<double> buf{2.0};
    CommHandle h = retrying.iallreduce_sum(buf);
    h.wait();
    ASSERT_DOUBLE_EQ(buf[0], 8.0);
  });
  EXPECT_EQ(group.last_run_stats().allreduce_calls, 4u);
}

TEST(AsyncDecorators, WaitStageFaultsRejectCorruptionKinds) {
  EXPECT_THROW(fault::parse_fault_plan("nan:rank=0,stage=wait"),
               InvalidArgument);
  EXPECT_THROW(fault::parse_fault_plan("bitflip:rank=0,stage=wait"),
               InvalidArgument);
  // Straggling completions are a legal plan.
  const auto plan =
      fault::parse_fault_plan("skew:us=50,stage=wait,seed=7");
  EXPECT_EQ(plan.specs.size(), 1u);
  EXPECT_EQ(plan.specs[0].stage, fault::FaultStage::kWait);
  EXPECT_NE(fault::describe(plan).find("stage=wait"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The chunk-pipelined distributed solve.
// ---------------------------------------------------------------------------

data::Dataset async_dataset(std::size_t m = 900, std::size_t d = 20) {
  data::SyntheticOptions opts;
  opts.num_samples = m;
  opts.num_features = d;
  opts.density = 0.4;
  opts.condition = 25.0;
  opts.noise_stddev = 0.05;
  opts.seed = 17;
  return data::make_regression(opts);
}

core::SolverOptions pipeline_options() {
  core::SolverOptions opts;
  // 38 iterations with k = 8 leaves a short tail chunk, so the ring
  // indexing and the drain are both exercised.
  opts.max_iters = 38;
  opts.sampling_rate = 0.25;
  opts.k = 8;
  opts.s = 2;
  opts.track_history = false;
  return opts;
}

TEST(PipelinedSolve, BitwiseIdenticalToBlockingAtStalenessZero) {
  const auto dataset = async_dataset();
  const core::LassoProblem problem(dataset, 0.01);
  auto opts = pipeline_options();

  core::SolveResult blocking;
  {
    ThreadGroup group(4);
    blocking = core::solve_rc_sfista_distributed(problem, opts, group);
  }
  ASSERT_TRUE(blocking.ok());

  opts.pipeline = true;
  ThreadGroup group(4);
  const auto pipelined = core::solve_rc_sfista_distributed(problem, opts, group);
  ASSERT_TRUE(pipelined.ok());

  // Same payloads, same deterministic reduction schedule, same update
  // order: the trajectories must agree bit for bit.
  EXPECT_EQ(la::max_abs_diff(blocking.w.span(), pipelined.w.span()), 0.0);
  EXPECT_EQ(blocking.objective, pipelined.objective);
  EXPECT_EQ(blocking.comm_stats.allreduce_calls,
            pipelined.comm_stats.allreduce_calls);
  EXPECT_EQ(blocking.comm_stats.allreduce_words,
            pipelined.comm_stats.allreduce_words);

  // The pipelined path reports the collective as post + wait phases, one
  // pair per chunk per rank-0 schedule.
  const auto rounds = static_cast<std::uint64_t>((38 + 8 - 1) / 8);
  const auto* post = obs::find_phase(pipelined.phases, "allreduce_post");
  const auto* wait = obs::find_phase(pipelined.phases, "allreduce_wait");
  ASSERT_NE(post, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(post->count, rounds);
  EXPECT_EQ(wait->count, rounds);
  EXPECT_EQ(obs::find_phase(pipelined.phases, "allreduce"), nullptr);
}

TEST(PipelinedSolve, RecursiveDoublingBackendAgreesPipelined) {
  const auto dataset = async_dataset();
  const core::LassoProblem problem(dataset, 0.01);
  auto opts = pipeline_options();
  core::SolveResult blocking;
  {
    ThreadGroup group(4, AllreduceAlgo::kRecursiveDoubling);
    blocking = core::solve_rc_sfista_distributed(problem, opts, group);
  }
  opts.pipeline = true;
  ThreadGroup group(4, AllreduceAlgo::kRecursiveDoubling);
  const auto pipelined = core::solve_rc_sfista_distributed(problem, opts, group);
  ASSERT_TRUE(pipelined.ok());
  EXPECT_EQ(la::max_abs_diff(blocking.w.span(), pipelined.w.span()), 0.0);
}

TEST(PipelinedSolve, SingleRankPipelines) {
  const auto dataset = async_dataset(300, 12);
  const core::LassoProblem problem(dataset, 0.01);
  auto opts = pipeline_options();
  core::SolveResult blocking;
  {
    ThreadGroup group(1);
    blocking = core::solve_rc_sfista_distributed(problem, opts, group);
  }
  opts.pipeline = true;
  opts.staleness = 1;
  ThreadGroup group(1);
  const auto pipelined = core::solve_rc_sfista_distributed(problem, opts, group);
  ASSERT_TRUE(pipelined.ok());
  // Staleness reuses earlier sampled Gram estimates, so the trajectory is
  // different but must stay finite and close on a well-conditioned problem.
  EXPECT_TRUE(std::isfinite(pipelined.objective));
  EXPECT_LT(std::abs(pipelined.objective - blocking.objective) /
                blocking.objective,
            0.5);
}

TEST(PipelinedSolve, BoundedStalenessIsDeterministic) {
  const auto dataset = async_dataset();
  const core::LassoProblem problem(dataset, 0.01);
  auto opts = pipeline_options();
  opts.pipeline = true;
  opts.staleness = 2;

  core::SolveResult first;
  for (int trial = 0; trial < 2; ++trial) {
    ThreadGroup group(4);
    auto result = core::solve_rc_sfista_distributed(problem, opts, group);
    ASSERT_TRUE(result.ok());
    if (trial == 0) {
      first = std::move(result);
    } else {
      // Staleness is a fixed schedule parameter, not a timing decision:
      // reruns are bitwise identical.
      EXPECT_EQ(la::max_abs_diff(first.w.span(), result.w.span()), 0.0);
    }
  }
  EXPECT_TRUE(std::isfinite(first.objective));
}

TEST(PipelinedSolve, StalenessRequiresPipeline) {
  const auto dataset = async_dataset(200, 8);
  const core::LassoProblem problem(dataset, 0.01);
  core::SolverOptions opts;
  opts.staleness = 1;
  ThreadGroup group(2);
  EXPECT_THROW(core::solve_rc_sfista_distributed(problem, opts, group),
               InvalidArgument);
  // One validation serves both entry points.
  EXPECT_THROW(core::solve_rc_sfista(problem, opts), InvalidArgument);
  opts.staleness = -1;
  opts.pipeline = true;
  EXPECT_THROW(core::solve_rc_sfista_distributed(problem, opts, group),
               InvalidArgument);
  EXPECT_THROW(core::solve_rc_sfista(problem, opts), InvalidArgument);
}

TEST(PipelinedSolve, OverlapIsCreditedUnderStaleness) {
  // With staleness 2 the wait for chunk t's reduction happens two full
  // chunks of compute later, so overlapped words must accumulate.  Each
  // rank's chunk builds four Grams of ~2,000 samples over 96 features --
  // milliseconds of compute, which dwarfs a progress thread's wake-up even
  // on an oversubscribed host.
  const auto dataset = async_dataset(8000, 96);
  const core::LassoProblem problem(dataset, 0.01);
  core::SolverOptions opts;
  opts.max_iters = 32;
  opts.sampling_rate = 0.5;
  opts.k = 4;
  opts.s = 2;
  opts.track_history = false;
  opts.pipeline = true;
  opts.staleness = 2;
  ThreadGroup group(2);
  const auto result = core::solve_rc_sfista_distributed(problem, opts, group);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.comm_stats.overlapped_words, 0u);
  EXPECT_LE(result.comm_stats.overlapped_words,
            result.comm_stats.allreduce_words);
}

TEST(PipelinedSolve, NanPoisonRecoversMidPipeline) {
  const auto dataset = async_dataset();
  const core::LassoProblem problem(dataset, 0.01);
  auto opts = pipeline_options();
  opts.pipeline = true;
  opts.retry.backoff_us = 1;

  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
  core::SolveResult baseline;
  {
    ThreadGroup group(4);
    baseline = core::solve_rc_sfista_distributed(problem, opts, group);
  }
  ASSERT_TRUE(baseline.ok());

  // Corrupt the third post on rank 1: every rank sees the poisoned sums at
  // the wait, rebuilds its local blocks, and re-reduces with a blocking
  // collective that quiesces the still-in-flight later posts.
  fault::ScopedFaultPlan scoped{
      std::string_view("nan:rank=1,call=2,words=4")};
  ThreadGroup group(4);
  const auto result = core::solve_rc_sfista_distributed(problem, opts, group);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_EQ(la::max_abs_diff(result.w.span(), baseline.w.span()), 0.0);
  EXPECT_GE(result.comm_stats.faults_injected, 1u);
}

TEST(PipelinedSolve, WaitStageTransientIsAbsorbedPipelined) {
  const auto dataset = async_dataset();
  const core::LassoProblem problem(dataset, 0.01);
  auto opts = pipeline_options();
  opts.pipeline = true;
  opts.staleness = 1;
  opts.retry.backoff_us = 1;

  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
  core::SolveResult baseline;
  {
    ThreadGroup group(4);
    baseline = core::solve_rc_sfista_distributed(problem, opts, group);
  }
  ASSERT_TRUE(baseline.ok());

  fault::ScopedFaultPlan scoped{
      std::string_view("transient:rank=3,call=1,stage=wait")};
  ThreadGroup group(4);
  const auto result = core::solve_rc_sfista_distributed(problem, opts, group);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  EXPECT_EQ(la::max_abs_diff(result.w.span(), baseline.w.span()), 0.0);
  EXPECT_GE(result.comm_stats.retries, 1u);
  EXPECT_GE(result.comm_stats.faults_injected, 1u);
}

}  // namespace
}  // namespace rcf::dist
