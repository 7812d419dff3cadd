// Fuzz-style negative tests for the LIBSVM parser: every malformed input
// class must surface a structured IoError -- never a crash, never a
// silently misparsed matrix.  The generative suite at the bottom drives the
// parser with seeded random mutations of a valid file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/generate.hpp"
#include "sparse/io.hpp"

namespace rcf::sparse {
namespace {

namespace fs = std::filesystem;

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rcf_io_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

LabelledMatrix parse_libsvm(const std::string& body,
                            std::size_t num_features = 0) {
  std::istringstream in(body);
  return read_libsvm_stream(in, num_features);
}

CsrMatrix random_csr(std::size_t rows, std::size_t cols, double density,
                     std::uint64_t seed) {
  GenerateOptions opts;
  opts.rows = rows;
  opts.cols = cols;
  opts.density = density;
  opts.seed = seed;
  return generate_random(opts);
}

LabelledMatrix random_labelled(std::size_t rows, std::size_t cols,
                               double density, std::uint64_t seed) {
  LabelledMatrix data;
  data.xt = random_csr(rows, cols, density, seed);
  std::vector<double> labels(rows);
  Rng rng(seed, 0xF022);
  for (double& y : labels) {
    y = rng.normal();
  }
  data.y = la::Vector(std::move(labels));
  return data;
}

// ---------------------------------------------------------------------------
// LIBSVM: malformed labels and tokens.

TEST_F(IoFuzzTest, LibsvmBadLabelThrowsInsteadOfSkipping) {
  // A line whose label fails to parse used to be skipped silently,
  // dropping a sample from the dataset.  It must be a structured error.
  EXPECT_THROW(parse_libsvm("nonsense 1:2.0\n"), IoError);
  EXPECT_THROW(parse_libsvm(":3 1:2.0\n"), IoError);
  EXPECT_THROW(parse_libsvm("1.5.7 1:2.0\n"), IoError);
}

TEST_F(IoFuzzTest, LibsvmLabelTrailingJunkThrows) {
  EXPECT_THROW(parse_libsvm("1x 1:2.0\n"), IoError);
  EXPECT_THROW(parse_libsvm("1.0e 1:2.0\n"), IoError);
}

TEST_F(IoFuzzTest, LibsvmExplicitPlusLabelParses) {
  const auto data = parse_libsvm("+1 1:2.0\n-1 1:3.0\n");
  ASSERT_EQ(data.y.size(), 2u);
  EXPECT_EQ(data.y[0], 1.0);
  EXPECT_EQ(data.y[1], -1.0);
}

TEST_F(IoFuzzTest, LibsvmIndexTrailingJunkThrows) {
  EXPECT_THROW(parse_libsvm("1 2x:1.0\n"), IoError);
  EXPECT_THROW(parse_libsvm("1 2 :1.0\n"), IoError);
}

TEST_F(IoFuzzTest, LibsvmNegativeIndexThrows) {
  // stoull would wrap "-3" to a huge unsigned value; the strict parser
  // must reject the sign outright.
  EXPECT_THROW(parse_libsvm("1 -3:1.0\n"), IoError);
}

TEST_F(IoFuzzTest, LibsvmIndexOverflowThrows) {
  EXPECT_THROW(parse_libsvm("1 99999999999999999999:1.0\n"), IoError);
  EXPECT_THROW(parse_libsvm("1 4294967296:1.0\n"), IoError);  // 2^32
}

TEST_F(IoFuzzTest, LibsvmValueTrailingJunkThrows) {
  EXPECT_THROW(parse_libsvm("1 2:1.0junk\n"), IoError);
  EXPECT_THROW(parse_libsvm("1 2:\n"), IoError);
}

TEST_F(IoFuzzTest, LibsvmNonFiniteValueThrows) {
  EXPECT_THROW(parse_libsvm("1 2:nan\n"), IoError);
  EXPECT_THROW(parse_libsvm("1 2:inf\n"), IoError);
  EXPECT_THROW(parse_libsvm("1 2:-inf\n"), IoError);
  EXPECT_THROW(parse_libsvm("1 2:1e999\n"), IoError);  // overflows to inf
}

TEST_F(IoFuzzTest, LibsvmDuplicateFeatureThrows) {
  // from_triplets sums duplicates, so "3:1.0 3:2.0" would silently become
  // 3.0 -- corrupt data must not change values.
  EXPECT_THROW(parse_libsvm("1 3:1.0 3:2.0\n"), IoError);
}

TEST_F(IoFuzzTest, LibsvmEmbeddedColonInValueThrows) {
  EXPECT_THROW(parse_libsvm("1 2:3:4\n"), IoError);
}

TEST_F(IoFuzzTest, LibsvmWellFormedEdgeCasesStillParse) {
  const auto data = parse_libsvm("0 1:0.0\n-2.5e-3 2:1.0 4:-7\n");
  ASSERT_EQ(data.y.size(), 2u);
  EXPECT_EQ(data.xt.cols(), 4u);
  EXPECT_EQ(data.y[1], -2.5e-3);
}

// ---------------------------------------------------------------------------
// Generative fuzzing: random single-character mutations of valid files must
// either round-trip to the same matrix (mutation hit a don't-care byte) or
// throw IoError -- never crash or change parsed values silently.

std::string render_libsvm(const LabelledMatrix& data) {
  std::ostringstream out;
  char buf[64];
  for (std::size_t r = 0; r < data.xt.rows(); ++r) {
    std::snprintf(buf, sizeof buf, "%.17g", data.y[r]);
    out << buf;
    const auto row = data.xt.row(r);
    for (std::size_t i = 0; i < row.nnz(); ++i) {
      std::snprintf(buf, sizeof buf, " %u:%.17g", row.cols[i] + 1,
                    row.vals[i]);
      out << buf;
    }
    out << '\n';
  }
  return out.str();
}

TEST_F(IoFuzzTest, LibsvmMutationFuzz) {
  constexpr std::uint64_t kSeed = 20180814;
  constexpr const char* kMutants = "x:- .#\t\n09e";
  Rng gen(kSeed, 0);
  const auto data = random_labelled(/*rows=*/12, /*cols=*/8,
                                    /*density=*/0.4, /*seed=*/kSeed);
  const std::string clean = render_libsvm(data);
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = clean;
    const auto pos = static_cast<std::size_t>(
        gen.uniform_index(static_cast<std::uint64_t>(mutated.size())));
    mutated[pos] = kMutants[gen.uniform_index(11)];
    try {
      const auto parsed = parse_libsvm(mutated);
      // Accepted: the mutation must not have silently changed sample count
      // beyond +/-1 (a newline edit can merge or split lines).
      EXPECT_LE(parsed.y.size(), data.y.size() + 1);
    } catch (const IoError&) {
      ++rejected;  // structured rejection is the expected common outcome
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(IoFuzzTest, LibsvmRoundTripSurvivesHardening) {
  // The strict parser must still accept everything the writer emits.
  const auto data = random_labelled(/*rows=*/20, /*cols=*/11,
                                    /*density=*/0.35, /*seed=*/7);
  const auto path = (dir_ / "round.libsvm").string();
  write_libsvm(path, data);
  const auto back = read_libsvm(path, data.xt.cols());
  ASSERT_EQ(back.y.size(), data.y.size());
  for (std::size_t i = 0; i < data.y.size(); ++i) {
    EXPECT_EQ(back.y[i], data.y[i]);
  }
  EXPECT_EQ(back.xt.nnz(), data.xt.nnz());
}

}  // namespace
}  // namespace rcf::sparse
