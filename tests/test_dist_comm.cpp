// Tests for the communicator substrate: sequential backend semantics and
// the threaded SPMD backend's allreduces (both reduction schedules).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dist/comm.hpp"
#include "dist/thread_comm.hpp"

namespace rcf::dist {
namespace {

TEST(SeqComm, Identities) {
  SeqComm comm;
  EXPECT_EQ(comm.rank(), 0);
  EXPECT_EQ(comm.size(), 1);
  std::vector<double> buf{1.0, 2.0};
  comm.allreduce_sum(buf);
  EXPECT_DOUBLE_EQ(buf[0], 1.0);
  EXPECT_DOUBLE_EQ(buf[1], 2.0);
  EXPECT_EQ(comm.stats().allreduce_calls, 1u);
  EXPECT_EQ(comm.stats().allreduce_words, 2u);
  EXPECT_EQ(comm.stats().max_payload_words, 2u);
}

class ThreadCommTest : public ::testing::TestWithParam<AllreduceAlgo> {};

TEST_P(ThreadCommTest, AllreduceSum) {
  for (int ranks : {1, 2, 4, 8}) {
    ThreadGroup group(ranks, GetParam());
    group.run([&](ThreadComm& comm) {
      std::vector<double> buf(16);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = comm.rank() + static_cast<double>(i);
      }
      comm.allreduce_sum(buf);
      const double rank_sum = ranks * (ranks - 1) / 2.0;
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_DOUBLE_EQ(buf[i], rank_sum + ranks * static_cast<double>(i));
      }
    });
  }
}

TEST_P(ThreadCommTest, AllreduceDeterministicAcrossRuns) {
  // Floating-point reduction must be reproducible run-to-run.
  std::vector<double> first;
  for (int trial = 0; trial < 3; ++trial) {
    ThreadGroup group(4, GetParam());
    std::vector<double> captured;
    group.run([&](ThreadComm& comm) {
      std::vector<double> buf(8);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = 0.1 * (comm.rank() + 1) + 1e-9 * static_cast<double>(i);
      }
      comm.allreduce_sum(buf);
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

TEST_P(ThreadCommTest, StatsAggregateAcrossRanks) {
  ThreadGroup group(4, GetParam());
  group.run([](ThreadComm& comm) {
    std::vector<double> buf(10, 1.0);
    comm.allreduce_sum(buf);
  });
  const auto stats = group.last_run_stats();
  EXPECT_EQ(stats.allreduce_calls, 4u);
  EXPECT_EQ(stats.allreduce_words, 40u);
  EXPECT_EQ(stats.max_payload_words, 10u);
}

TEST_P(ThreadCommTest, SequentialRunsReuseGroup) {
  ThreadGroup group(2, GetParam());
  for (int i = 0; i < 3; ++i) {
    group.run([&](ThreadComm& comm) {
      std::vector<double> buf{1.0};
      comm.allreduce_sum(buf);
      ASSERT_DOUBLE_EQ(buf[0], 2.0);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, ThreadCommTest,
                         ::testing::Values(AllreduceAlgo::kCentral,
                                           AllreduceAlgo::kRecursiveDoubling),
                         [](const auto& param_info) {
                           return param_info.param == AllreduceAlgo::kCentral
                                      ? "Central"
                                      : "RecursiveDoubling";
                         });

TEST(ThreadComm, RecursiveDoublingNonPowerOfTwoFallsBack) {
  // 3 ranks: kRecursiveDoubling must still produce correct sums (central
  // fallback).
  ThreadGroup group(3, AllreduceAlgo::kRecursiveDoubling);
  group.run([](ThreadComm& comm) {
    std::vector<double> buf{static_cast<double>(comm.rank() + 1)};
    comm.allreduce_sum(buf);
    ASSERT_DOUBLE_EQ(buf[0], 6.0);
  });
}

TEST(ThreadComm, BothSchedulesAgreeNumerically) {
  std::vector<double> central, rd;
  for (auto algo : {AllreduceAlgo::kCentral, AllreduceAlgo::kRecursiveDoubling}) {
    ThreadGroup group(4, algo);
    std::vector<double> captured;
    group.run([&](ThreadComm& comm) {
      std::vector<double> buf(4, 1.0 / (comm.rank() + 3.0));
      comm.allreduce_sum(buf);
      if (comm.rank() == 0) {
        captured = buf;
      }
    });
    (algo == AllreduceAlgo::kCentral ? central : rd) = captured;
  }
  for (std::size_t i = 0; i < central.size(); ++i) {
    EXPECT_NEAR(central[i], rd[i], 1e-15);
  }
}

TEST(ThreadComm, SchedulesSumInTheirDocumentedOrder) {
  // 1e16 + 1 rounds back to 1e16 (ties to even), so the order shows:
  // kCentral adds in rank order, ((1e16 + 1) - 1e16) + 1 = 1, while
  // kRecursiveDoubling adds pairs lower + upper, (1e16 + 1) + (-1e16 + 1)
  // = 1e16 - 1e16 = 0.  Every rank holds the same sum.
  const double contribution[4] = {1e16, 1.0, -1e16, 1.0};
  for (const auto& [algo, want] :
       {std::pair{AllreduceAlgo::kCentral, 1.0},
        std::pair{AllreduceAlgo::kRecursiveDoubling, 0.0}}) {
    ThreadGroup group(4, algo);
    std::vector<double> sums(4);
    group.run([&](ThreadComm& comm) {
      std::vector<double> buf{contribution[comm.rank()]};
      comm.allreduce_sum(buf);
      sums[static_cast<std::size_t>(comm.rank())] = buf[0];
    });
    for (const double sum : sums) {
      EXPECT_EQ(sum, want) << (algo == AllreduceAlgo::kCentral ? "central"
                                                               : "rd");
    }
  }
}

TEST(ThreadGroup, RethrowsBodyException) {
  ThreadGroup group(1);
  EXPECT_THROW(group.run([](ThreadComm&) {
    throw std::runtime_error("rank failure");
  }),
               std::runtime_error);
}

TEST(ThreadGroup, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadGroup(0), rcf::InvalidArgument);
}

}  // namespace
}  // namespace rcf::dist
