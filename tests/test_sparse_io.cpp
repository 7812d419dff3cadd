// Tests for LIBSVM I/O.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "sparse/generate.hpp"
#include "sparse/io.hpp"

namespace rcf::sparse {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rcf_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, LibsvmParseBasic) {
  std::istringstream in(
      "1.5 1:0.5 3:2.0\n"
      "-1 2:1.25\n");
  const auto data = read_libsvm_stream(in);
  EXPECT_EQ(data.xt.rows(), 2u);
  EXPECT_EQ(data.xt.cols(), 3u);
  EXPECT_DOUBLE_EQ(data.y[0], 1.5);
  EXPECT_DOUBLE_EQ(data.y[1], -1.0);
  const auto row0 = data.xt.row(0);
  EXPECT_EQ(row0.cols[0], 0u);  // 1-based -> 0-based
  EXPECT_DOUBLE_EQ(row0.vals[1], 2.0);
}

TEST_F(IoTest, LibsvmCommentsAndBlankLines) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "2 1:1.0  # trailing comment\n");
  const auto data = read_libsvm_stream(in);
  EXPECT_EQ(data.xt.rows(), 1u);
  EXPECT_DOUBLE_EQ(data.y[0], 2.0);
}

TEST_F(IoTest, LibsvmForcedDimension) {
  std::istringstream in("1 1:1.0\n");
  const auto data = read_libsvm_stream(in, 10);
  EXPECT_EQ(data.xt.cols(), 10u);
}

TEST_F(IoTest, LibsvmDimensionTooSmallThrows) {
  std::istringstream in("1 5:1.0\n");
  EXPECT_THROW(read_libsvm_stream(in, 3), IoError);
}

TEST_F(IoTest, LibsvmMalformedTokenThrows) {
  std::istringstream in("1 notanindex\n");
  EXPECT_THROW(read_libsvm_stream(in), IoError);
  std::istringstream zero("1 0:1.0\n");
  EXPECT_THROW(read_libsvm_stream(zero), IoError);
  std::istringstream bad("1 a:b\n");
  EXPECT_THROW(read_libsvm_stream(bad), IoError);
}

TEST_F(IoTest, LibsvmRoundTrip) {
  GenerateOptions opts;
  opts.rows = 25;
  opts.cols = 13;
  opts.density = 0.3;
  LabelledMatrix data;
  data.xt = generate_random(opts);
  data.y = la::Vector(25);
  for (std::size_t i = 0; i < 25; ++i) {
    data.y[i] = static_cast<double>(i) * 0.25 - 3.0;
  }
  write_libsvm(path("roundtrip.svm"), data);
  const auto back = read_libsvm(path("roundtrip.svm"), 13);
  EXPECT_EQ(back.xt, data.xt);
  EXPECT_EQ(back.y.raw(), data.y.raw());
}

TEST_F(IoTest, LibsvmMissingFileThrows) {
  EXPECT_THROW(read_libsvm(path("does_not_exist.svm")), IoError);
}

}  // namespace
}  // namespace rcf::sparse
