// Tests for the verification layer (src/check): seeded collective-contract
// defects must be *reported* (named ranks + call sites), never hung; seeded
// partition defects must name the colliding parts; and a clean 4-rank
// distributed solve under RCF_CHECK=1 must pass with zero reports and the
// identical iterate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/checked_comm.hpp"
#include "check/contract.hpp"
#include "check/fingerprint.hpp"
#include "check/options.hpp"
#include "check/partition.hpp"
#include "check/rendezvous.hpp"
#include "common/error.hpp"
#include "core/distributed.hpp"
#include "core/problem.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "exec/pool.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"

namespace rcf::check {
namespace {

CheckOptions checked_options(int timeout_ms = 5000) {
  CheckOptions opts;
  opts.enabled = true;
  opts.timeout_ms = timeout_ms;
  return opts;
}

std::uint64_t violations() {
  return obs::MetricsRegistry::global()
      .counter("check.contract_violations")
      .value();
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, IdenticalStreamsMatch) {
  SequenceTracker a, b;
  const auto site = std::source_location::current();
  for (int i = 0; i < 4; ++i) {
    const auto fa = a.next(CollectiveKind::kAllreduceSum, 7, false, site);
    const auto fb = b.next(CollectiveKind::kAllreduceSum, 7, false, site);
    EXPECT_TRUE(fa.matches(fb)) << i;
    EXPECT_EQ(fa.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(Fingerprint, DivergenceStaysInRollingHash) {
  SequenceTracker a, b;
  const auto site = std::source_location::current();
  a.next(CollectiveKind::kAllreduceSum, 7, false, site);
  b.next(CollectiveKind::kIallreduceSum, 7, false, site);
  // Same kind/words from here on, but the rolling hash remembers the
  // divergence forever.
  const auto fa = a.next(CollectiveKind::kAllreduceSum, 7, false, site);
  const auto fb = b.next(CollectiveKind::kAllreduceSum, 7, false, site);
  EXPECT_FALSE(fa.matches(fb));
  EXPECT_NE(fa.rolling, fb.rolling);
}

TEST(Fingerprint, AuxSpaceIsIndependent) {
  SequenceTracker a, b;
  const auto site = std::source_location::current();
  // a interleaves aux traffic, b does not; the engine streams stay equal.
  a.next(CollectiveKind::kAllreduceSum, 3, true, site);
  const auto fa = a.next(CollectiveKind::kAllreduceSum, 9, false, site);
  const auto fb = b.next(CollectiveKind::kAllreduceSum, 9, false, site);
  EXPECT_TRUE(fa.matches(fb));
  EXPECT_EQ(fa.space, 0);
  const auto ga = a.next(CollectiveKind::kAllreduceSum, 2, true, site);
  EXPECT_EQ(ga.space, 1);
  EXPECT_EQ(ga.seq, 1u) << "aux space counts its own calls";
}

TEST(Fingerprint, DescribeNamesKindSpaceAndSite) {
  SequenceTracker t;
  const auto fp = t.next(CollectiveKind::kAllreduceSum, 132, false,
                         std::source_location::current());
  const std::string text = fp.describe();
  EXPECT_NE(text.find("allreduce_sum"), std::string::npos) << text;
  EXPECT_NE(text.find("engine"), std::string::npos) << text;
  EXPECT_NE(text.find("words=132"), std::string::npos) << text;
  EXPECT_NE(text.find("test_check_contract.cpp"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Contract checker on the threaded backend: seeded defects
// ---------------------------------------------------------------------------

TEST(CheckContract, PayloadMismatchReported) {
  const auto before = violations();
  dist::ThreadGroup group(2, dist::AllreduceAlgo::kCentral, checked_options());
  try {
    group.run([&](dist::ThreadComm& comm) {
      std::vector<double> buf(comm.rank() == 0 ? 4u : 5u, 1.0);
      comm.allreduce_sum(buf);
    });
    FAIL() << "payload mismatch was not reported";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contract violation"), std::string::npos) << what;
    EXPECT_NE(what.find("words=4"), std::string::npos) << what;
    EXPECT_NE(what.find("words=5"), std::string::npos) << what;
    EXPECT_NE(what.find("test_check_contract.cpp"), std::string::npos) << what;
  }
  EXPECT_GT(violations(), before);
}

TEST(CheckContract, RankDivergentSequenceReported) {
  // Rank 1 answers rank 0's blocking sum with a sum issued from another
  // call site, then with a posted sum: a blocking and a posted collective
  // at the same sequence point are different schedules.
  const auto site0 = std::source_location::current();
  const auto site1 = std::source_location::current();
  for (const bool posted : {false, true}) {
    const std::string other = posted ? "iallreduce_sum" : "allreduce_sum";
    dist::ThreadGroup group(2, dist::AllreduceAlgo::kCentral,
                            checked_options());
    try {
      group.run([&](dist::ThreadComm& comm) {
        std::vector<double> buf(8, 0.0);
        if (comm.rank() == 0) {
          comm.allreduce_sum(buf, site0);
        } else if (posted) {
          comm.iallreduce_sum(buf, site1).wait();
        } else {
          comm.allreduce_sum(buf, site1);
        }
      });
      FAIL() << "rank-divergent schedule was not reported: " << other;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("issued allreduce_sum"), std::string::npos) << what;
      EXPECT_NE(what.find("issued " + other), std::string::npos) << what;
      EXPECT_NE(what.find(":" + std::to_string(site0.line())),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(":" + std::to_string(site1.line())),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    }
  }
}

TEST(CheckContract, DeadlockReportedAsTimeoutNamingMissingRank) {
  dist::ThreadGroup group(2, dist::AllreduceAlgo::kCentral,
                          checked_options(/*timeout_ms=*/250));
  try {
    group.run([&](dist::ThreadComm& comm) {
      if (comm.rank() == 0) {
        std::vector<double> buf(1, 0.0);
        comm.allreduce_sum(buf);  // rank 1 never shows up
      }
    });
    FAIL() << "collective deadlock was not reported";
  } catch (const CommTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stall"), std::string::npos) << what;
    EXPECT_NE(what.find("never arrived"), std::string::npos) << what;
    EXPECT_NE(what.find("1"), std::string::npos) << what;
  }
}

TEST(CheckContract, AuxAgainstEngineCollectiveReported) {
  dist::ThreadGroup group(2, dist::AllreduceAlgo::kCentral, checked_options());
  EXPECT_THROW(group.run([&](dist::ThreadComm& comm) {
    std::vector<double> buf(4, 0.0);
    if (comm.rank() == 0) {
      dist::Communicator::AuxScope aux(comm);
      comm.allreduce_sum(buf);
    } else {
      comm.allreduce_sum(buf);
    }
  }),
               ContractViolation);
}

TEST(CheckContract, MatchedAuxTrafficIsClean) {
  const auto before = violations();
  dist::ThreadGroup group(4, dist::AllreduceAlgo::kCentral, checked_options());
  group.run([&](dist::ThreadComm& comm) {
    std::vector<double> buf(4, 1.0);
    comm.allreduce_sum(buf);
    {
      dist::Communicator::AuxScope aux(comm);
      std::vector<double> aux_buf(2, 1.0);
      comm.allreduce_sum(aux_buf);
      ASSERT_DOUBLE_EQ(aux_buf[0], 4.0);
    }
    comm.allreduce_sum(buf);
    ASSERT_DOUBLE_EQ(buf[0], 16.0);
  });
  EXPECT_EQ(violations(), before);
}

TEST(CheckContract, BodyExceptionDoesNotHangOtherRanks) {
  dist::ThreadGroup group(4, dist::AllreduceAlgo::kCentral, checked_options());
  EXPECT_THROW(group.run([&](dist::ThreadComm& comm) {
    if (comm.rank() == 2) {
      throw InvalidArgument("rank 2 gives up");
    }
    std::vector<double> buf(1, 0.0);
    comm.allreduce_sum(buf);  // survivors are released by the poison
  }),
               InvalidArgument);
}

TEST(CheckContract, GroupIsReusableAfterViolation) {
  dist::ThreadGroup group(2, dist::AllreduceAlgo::kCentral, checked_options());
  EXPECT_THROW(group.run([&](dist::ThreadComm& comm) {
    std::vector<double> buf(comm.rank() == 0 ? 1u : 2u, 0.0);
    comm.allreduce_sum(buf);
  }),
               ContractViolation);
  group.run([&](dist::ThreadComm& comm) {
    std::vector<double> buf(2, 1.0);
    comm.allreduce_sum(buf);
    ASSERT_DOUBLE_EQ(buf[0], 2.0);
  });
}

// ---------------------------------------------------------------------------
// CheckedComm decorator (backend-agnostic epoch exchange)
// ---------------------------------------------------------------------------

/// Rank 0 of a pretend 2-rank world, run on one thread: its aux-mode
/// allreduce_sum fills slot 1 with a hash that differs from this rank's,
/// simulating a diverged rank 1 for the epoch exchange without needing a
/// second real rank.
class DivergentHashComm final : public dist::Communicator {
 public:
  [[nodiscard]] int rank() const override { return 0; }
  [[nodiscard]] int size() const override { return 2; }
  void allreduce_sum(std::span<double> inout,
                     std::source_location =
                         std::source_location::current()) override {
    if (aux_mode()) {
      inout[1] = inout[0] + 1.0;  // rank 1's hash differs from rank 0's
    } else {
      ++stats_.allreduce_calls;
    }
  }
  dist::CommHandle iallreduce_sum(
      std::span<double> inout,
      std::source_location site = std::source_location::current()) override {
    allreduce_sum(inout, site);
    return {};
  }
  [[nodiscard]] const dist::CommStats& stats() const override {
    return stats_;
  }

 private:
  dist::CommStats stats_;
};

TEST(CheckedComm, CleanScheduleIsQuiet) {
  dist::SeqComm inner;
  CheckOptions opts = checked_options();
  opts.epoch = 2;
  CheckedComm comm(inner, opts);
  EXPECT_TRUE(comm.enabled());
  std::vector<double> buf(4, 1.0);
  for (int i = 0; i < 10; ++i) {
    comm.allreduce_sum(buf);
  }
  // The epoch exchange runs in aux mode: engine stats stay exact.
  EXPECT_EQ(comm.stats().allreduce_calls, 10u);
}

TEST(CheckedComm, EpochExchangeReportsHashDivergence) {
  DivergentHashComm inner;
  CheckOptions opts = checked_options();
  opts.epoch = 4;
  CheckedComm comm(inner, opts);
  std::vector<double> buf(4, 1.0);
  comm.allreduce_sum(buf);
  comm.allreduce_sum(buf);
  comm.allreduce_sum(buf);
  try {
    comm.allreduce_sum(buf);  // 4th engine collective -> exchange fires
    FAIL() << "diverged rolling hash was not reported";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rolling hash diverged"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1 has"), std::string::npos) << what;
    EXPECT_NE(what.find("allreduce_sum"), std::string::npos) << what;
    EXPECT_NE(what.find("test_check_contract.cpp"), std::string::npos) << what;
  }
}

TEST(CheckedComm, EpochExchangeNamesTheDivergentRank) {
  // Four real ranks with the per-call board off, so only the epoch
  // exchange can see that rank 2 issued its sum from another call site.
  constexpr int kRanks = 4;
  CheckOptions opts = checked_options();
  opts.epoch = 1;
  std::vector<std::string> what(kRanks);
  dist::ThreadGroup group(kRanks, dist::AllreduceAlgo::kCentral,
                          CheckOptions{});
  group.run([&](dist::ThreadComm& thread_comm) {
    CheckedComm comm(thread_comm, opts);
    std::vector<double> buf(4, 1.0);
    try {
      if (comm.rank() == 2) {
        comm.allreduce_sum(buf);
      } else {
        comm.allreduce_sum(buf);
      }
    } catch (const ContractViolation& e) {
      what[static_cast<std::size_t>(comm.rank())] = e.what();
    }
  });
  // Rank 2 names its own hash; every other rank must name rank 2 with it.
  const std::string key = "rank 2 has ";
  const auto at = what[2].find(key);
  ASSERT_NE(at, std::string::npos) << what[2];
  const std::size_t begin = at + key.size();
  const std::string hash =
      what[2].substr(begin, what[2].find_first_of(";,)", begin) - begin);
  ASSERT_EQ(hash.rfind("0x", 0), 0u) << what[2];
  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE(r);
    EXPECT_NE(what[static_cast<std::size_t>(r)].find(key + hash),
              std::string::npos)
        << what[static_cast<std::size_t>(r)];
  }
  // Ranks 0, 1 and 3 agree, so none of them names another agreeing rank.
  EXPECT_EQ(what[0].find("rank 1 has"), std::string::npos) << what[0];
  EXPECT_EQ(what[0].find("rank 3 has"), std::string::npos) << what[0];
}

TEST(CheckedComm, DisabledForwardsUntouched) {
  dist::SeqComm inner;
  CheckOptions opts;  // enabled = false
  CheckedComm comm(inner, opts);
  EXPECT_FALSE(comm.enabled());
  std::vector<double> buf(3, 2.0);
  comm.allreduce_sum(buf);
  EXPECT_EQ(inner.stats().allreduce_calls, 1u);
  EXPECT_DOUBLE_EQ(buf[0], 2.0);
}

// ---------------------------------------------------------------------------
// Partition auditor
// ---------------------------------------------------------------------------

TEST(CheckPartition, OverlapNamesBothPartsAndIndex) {
  PartitionAudit audit("unit.overlap", 10);
  audit.mark(0, 0, 6);
  try {
    audit.mark(1, 5, 10);
    FAIL() << "overlap was not reported";
  } catch (const PartitionViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unit.overlap"), std::string::npos) << what;
    EXPECT_NE(what.find("index 5"), std::string::npos) << what;
    EXPECT_NE(what.find("part 0"), std::string::npos) << what;
    EXPECT_NE(what.find("part 1"), std::string::npos) << what;
  }
}

TEST(CheckPartition, GapNamesFirstUncoveredIndex) {
  PartitionAudit audit("unit.gap", 10);
  audit.mark(0, 0, 4);
  audit.mark(1, 5, 10);
  try {
    audit.finish();
    FAIL() << "gap was not reported";
  } catch (const PartitionViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index 4"), std::string::npos) << what;
    EXPECT_NE(what.find("gap"), std::string::npos) << what;
  }
}

TEST(CheckPartition, OutOfBoundsRangeReported) {
  PartitionAudit audit("unit.oob", 10);
  EXPECT_THROW(audit.mark(0, 5, 11), PartitionViolation);
  EXPECT_THROW(audit.mark(0, 7, 6), PartitionViolation);
}

TEST(CheckPartition, BlockAndTriangleRangesAlwaysTile) {
  for (const std::size_t n : {0u, 1u, 5u, 17u, 64u, 1000u}) {
    for (const int parts : {1, 2, 3, 7, 16}) {
      const auto nparts = static_cast<std::size_t>(parts);
      audit_partition("sweep.block", n, nparts, [&](std::size_t part) {
        const exec::Range r = exec::block_range(n, parts,
                                                static_cast<int>(part));
        return std::pair<std::size_t, std::size_t>{r.begin, r.end};
      });
      audit_partition("sweep.triangle", n, nparts, [&](std::size_t part) {
        const exec::Range r =
            exec::triangle_range(n, parts, static_cast<int>(part));
        return std::pair<std::size_t, std::size_t>{r.begin, r.end};
      });
    }
  }
}

TEST(CheckPartition, AuditPartitionReportsSeededOverlap) {
  const auto before = obs::MetricsRegistry::global()
                          .counter("check.partition_violations")
                          .value();
  EXPECT_THROW(
      audit_partition("seeded.overlap", 8, 2,
                      [](std::size_t) {
                        // Both parts claim the full range.
                        return std::pair<std::size_t, std::size_t>{0, 8};
                      }),
      PartitionViolation);
  EXPECT_GT(obs::MetricsRegistry::global()
                .counter("check.partition_violations")
                .value(),
            before);
}

TEST(CheckPartition, SampledGateRespectsScopedEnable) {
  {
    ScopedCheckEnable off(false);
    for (int i = 0; i < 64; ++i) {
      EXPECT_FALSE(partition_audit_due());
    }
  }
  {
    ScopedCheckEnable on(true);
    // Default sampling audits every 16th dispatch; 16 consecutive calls
    // must therefore hit at least one audit regardless of counter phase.
    bool any = false;
    for (int i = 0; i < 16; ++i) {
      any = any || partition_audit_due();
    }
    EXPECT_TRUE(any);
  }
}

// ---------------------------------------------------------------------------
// Positive control: clean 4-rank prox-Newton-style solve under RCF_CHECK=1
// ---------------------------------------------------------------------------

TEST(CheckContract, CleanDistributedSolveUnderCheckIsBitwiseIdentical) {
  const auto dataset = [] {
    data::SyntheticOptions o;
    o.num_samples = 600;
    o.num_features = 24;
    o.density = 0.4;
    o.condition = 30.0;
    o.noise_stddev = 0.05;
    o.seed = 13;
    return data::make_regression(o);
  }();
  const core::LassoProblem problem(dataset, 0.01);
  core::SolverOptions opts;
  opts.max_iters = 32;
  opts.sampling_rate = 0.2;
  opts.k = 4;  // PN-style block schedule: k Hessians per allreduce round
  opts.s = 2;
  opts.track_history = false;

  // Reference: checking off.
  core::SolveResult plain;
  {
    ScopedCheckEnable off(false);
    dist::ThreadGroup group(4);
    plain = core::solve_rc_sfista_distributed(problem, opts, group);
  }

  const auto violations_before = violations();
  const auto partition_violations_before =
      obs::MetricsRegistry::global()
          .counter("check.partition_violations")
          .value();

  // Checked: RCF_CHECK=1 configuration via the scoped override.
  core::SolveResult checked;
  {
    ScopedCheckEnable on(true);
    dist::ThreadGroup group(4);
    checked = core::solve_rc_sfista_distributed(problem, opts, group);
  }

  // Zero reports...
  EXPECT_EQ(violations(), violations_before);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("check.partition_violations")
                .value(),
            partition_violations_before);
  // ...the checker actually ran...
  EXPECT_GT(obs::MetricsRegistry::global()
                .counter("check.collectives_checked")
                .value(),
            0u);
  // ...and checking perturbed nothing: same iterate bit for bit, same
  // engine comm schedule.
  ASSERT_EQ(checked.w.size(), plain.w.size());
  EXPECT_EQ(la::max_abs_diff(checked.w.span(), plain.w.span()), 0.0);
  EXPECT_EQ(checked.comm_stats.allreduce_calls,
            plain.comm_stats.allreduce_calls);
  EXPECT_EQ(checked.comm_stats.allreduce_words,
            plain.comm_stats.allreduce_words);
}

}  // namespace
}  // namespace rcf::check
