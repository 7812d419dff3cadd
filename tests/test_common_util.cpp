// Tests for CLI parsing, tables, logging plumbing, and error types.
#include <gtest/gtest.h>

#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace rcf {
namespace {

TEST(Cli, ParsesKeyValueForms) {
  CliParser cli("t", "test");
  // Note: a bare "--flag" greedily consumes a following non-flag token as
  // its value, so positionals go before bare boolean flags.
  const char* argv[] = {"t", "--a=1", "--b", "2", "pos", "--flag"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_int("a", 0), 1);
  EXPECT_EQ(cli.get_int("b", 0), 2);
  EXPECT_TRUE(cli.get_bool("flag", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, Defaults) {
  CliParser cli("t", "test");
  const char* argv[] = {"t"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cli.get_string("missing", "x"), "x");
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("t", "test");
  const char* argv[] = {"t", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, IntList) {
  CliParser cli("t", "test");
  const char* argv[] = {"t", "--ks=1,2,8"};
  ASSERT_TRUE(cli.parse(2, argv));
  const auto ks = cli.get_int_list("ks", {});
  ASSERT_EQ(ks.size(), 3u);
  EXPECT_EQ(ks[2], 8);
  const auto fallback = cli.get_int_list("missing", {4, 5});
  EXPECT_EQ(fallback.size(), 2u);
}

TEST(Cli, DoubleList) {
  CliParser cli("t", "test");
  const char* argv[] = {"t", "--bs=0.5,0.25"};
  ASSERT_TRUE(cli.parse(2, argv));
  const auto bs = cli.get_double_list("bs", {});
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_DOUBLE_EQ(bs[1], 0.25);
}

TEST(Cli, BadIntThrows) {
  CliParser cli("t", "test");
  const char* argv[] = {"t", "--a=xyz"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW((void)cli.get_int("a", 0), InvalidArgument);
  EXPECT_THROW((void)cli.get_double("a", 0.0), InvalidArgument);

  // A value is read whole: trailing characters, a bad list item and an
  // unknown boolean spelling all throw InvalidArgument naming the flag,
  // as does a boolean flag that swallowed the positional after it.
  CliParser bad("t", "test");
  const char* bad_argv[] = {"t",        "--k=4x",     "--b=0.2.5",
                            "--ks=1,x", "--bs=0.5,y", "--vr=ture",
                            "--once",   "stream.jsonl"};
  ASSERT_TRUE(bad.parse(8, bad_argv));
  const auto throws_naming = [](const char* flag, const auto& read) {
    try {
      read();
      ADD_FAILURE() << "--" << flag << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  };
  throws_naming("k", [&] { (void)bad.get_int("k", 0); });
  throws_naming("b", [&] { (void)bad.get_double("b", 0.0); });
  throws_naming("ks", [&] { (void)bad.get_int_list("ks", {}); });
  throws_naming("bs", [&] { (void)bad.get_double_list("bs", {}); });
  throws_naming("vr", [&] { (void)bad.get_bool("vr", true); });
  throws_naming("once", [&] { (void)bad.get_bool("once", false); });

  // Every accepted boolean spelling still reads.
  CliParser good("t", "test");
  const char* good_argv[] = {"t",      "--t1=true", "--t2=1",  "--t3=yes",
                             "--t4=on", "--f1=false", "--f2=0", "--f3=no",
                             "--f4=off", "--k=-4",    "--b=2.5e-3"};
  ASSERT_TRUE(good.parse(11, good_argv));
  for (const char* flag : {"t1", "t2", "t3", "t4"}) {
    EXPECT_TRUE(good.get_bool(flag, false)) << flag;
  }
  for (const char* flag : {"f1", "f2", "f3", "f4"}) {
    EXPECT_FALSE(good.get_bool(flag, true)) << flag;
  }
  EXPECT_EQ(good.get_int("k", 0), -4);
  EXPECT_DOUBLE_EQ(good.get_double("b", 0.0), 2.5e-3);
}

TEST(Cli, RejectsUndeclaredFlag) {
  // A parser that declares its flags rejects any other (a misspelled flag
  // must not silently run the defaults); --help stays accepted.
  CliParser cli("t", "test");
  cli.add_flag("algo", "allreduce algorithm", "central");
  const char* typo[] = {"t", "--collective=rd"};
  EXPECT_THROW((void)cli.parse(2, typo), InvalidArgument);
  CliParser ok("t", "test");
  ok.add_flag("algo", "allreduce algorithm", "central");
  const char* declared[] = {"t", "--algo=rd"};
  ASSERT_TRUE(ok.parse(2, declared));
  EXPECT_EQ(ok.get_string("algo", "central"), "rd");
  CliParser help("t", "test");
  help.add_flag("algo", "allreduce algorithm", "central");
  const char* asks_help[] = {"t", "--help"};
  EXPECT_FALSE(help.parse(2, asks_help));
  // A parser that declares nothing stays lenient.
  CliParser open("t", "test");
  ASSERT_TRUE(open.parse(2, typo));
  EXPECT_EQ(open.get_string("collective", ""), "rd");
}

TEST(Cli, NegativeNumberAsValue) {
  CliParser cli("t", "test");
  const char* argv[] = {"t", "--a=-3"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("a", 0), -3);
}

TEST(Table, AlignedRendering) {
  AsciiTable t({"col", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "2"});
  const auto s = t.str();
  EXPECT_NE(s.find("| col"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRendering) {
  AsciiTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Format, Numbers) {
  EXPECT_EQ(fmt_f(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(12), "12");
  EXPECT_EQ(fmt_count(123), "123");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_bytes(512), "512B");
  EXPECT_NE(fmt_bytes(2'500'000).find("MB"), std::string::npos);
}

TEST(Log, LevelParsing) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
}

TEST(Log, LevelNamesRoundTrip) {
  for (const auto level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff}) {
    EXPECT_EQ(parse_log_level(log_level_name(level)), level);
  }
}

TEST(Log, RankTracksThread) {
  const int saved = log_rank();
  set_log_rank(3);
  EXPECT_EQ(log_rank(), 3);
  set_log_rank(saved);
}

TEST(Log, ThresholdFilters) {
  const auto saved = log_level();
  set_log_level(LogLevel::kError);
  // Should not crash and should be filtered (no observable side effect to
  // assert beyond not emitting; exercise the macro path).
  RCF_LOG_DEBUG << "invisible " << 42;
  RCF_LOG_ERROR << "visible";
  set_log_level(saved);
}

TEST(Checks, ThrowWithContext) {
  try {
    RCF_CHECK_MSG(false, "ctx");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos);
  }
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace rcf
