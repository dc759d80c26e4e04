#include "mec/io/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mec/common/error.hpp"

namespace mec::io {
namespace {

TEST(ArgsParse, CommandAndFlagsInBothStyles) {
  const Args a = Args::parse({"mfne", "--n=500", "--seed", "7", "--trace"});
  EXPECT_EQ(a.command(), "mfne");
  EXPECT_EQ(a.get_long("n", 0), 500);
  EXPECT_EQ(a.get_long("seed", 0), 7);
  EXPECT_TRUE(a.get_bool("trace", false));
  EXPECT_TRUE(a.has("n"));
  EXPECT_FALSE(a.has("missing"));
}

TEST(ArgsParse, EmptyInputGivesEmptyCommand) {
  const Args a = Args::parse({});
  EXPECT_TRUE(a.command().empty());
}

TEST(ArgsParse, FlagsOnlyWithoutCommand) {
  const Args a = Args::parse({"--help"});
  EXPECT_TRUE(a.command().empty());
  EXPECT_TRUE(a.get_bool("help", false));
}

TEST(ArgsParse, RejectsMalformedInput) {
  EXPECT_THROW(Args::parse({"cmd", "stray-positional"}), RuntimeError);
  EXPECT_THROW(Args::parse({"cmd", "--dup=1", "--dup=2"}), RuntimeError);
  EXPECT_THROW(Args::parse({"cmd", "--=v"}), RuntimeError);
}

TEST(ArgsTyped, DefaultsApplyWhenAbsent) {
  const Args a = Args::parse({"cmd"});
  EXPECT_EQ(a.get_string("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(a.get_double("d", 2.5), 2.5);
  EXPECT_EQ(a.get_long("l", -3), -3);
  EXPECT_FALSE(a.get_bool("b", false));
}

TEST(ArgsTyped, ParsesNumbersStrictly) {
  const Args a = Args::parse({"cmd", "--x=1.5", "--k=12", "--bad=1.5zz"});
  EXPECT_DOUBLE_EQ(a.get_double("x", 0.0), 1.5);
  EXPECT_EQ(a.get_long("k", 0), 12);
  EXPECT_THROW(a.get_double("bad", 0.0), RuntimeError);
  EXPECT_THROW(a.get_long("x", 0), RuntimeError);  // 1.5 is not an integer
}

TEST(ArgsTyped, ParsesBooleansStrictly) {
  const Args a =
      Args::parse({"cmd", "--yes=true", "--no=0", "--odd=maybe"});
  EXPECT_TRUE(a.get_bool("yes", false));
  EXPECT_FALSE(a.get_bool("no", true));
  EXPECT_THROW(a.get_bool("odd", false), RuntimeError);
}

TEST(ArgsValidation, RejectUnknownCatchesTypos) {
  const Args a = Args::parse({"cmd", "--seed=1", "--sedd=2"});
  EXPECT_THROW(a.reject_unknown({"seed"}), RuntimeError);
  EXPECT_NO_THROW(a.reject_unknown({"seed", "sedd"}));
}

TEST(ArgsParse, SpaceSeparatedValueStopsAtNextFlag) {
  const Args a = Args::parse({"cmd", "--flag", "--other=1"});
  EXPECT_EQ(a.get_string("flag", ""), "true");  // switch, not "--other=1"
  EXPECT_EQ(a.get_long("other", 0), 1);
}

TEST(ArgsParse, TracksWhichFlagsWereBare) {
  const Args a = Args::parse({"cmd", "--switch", "--val=x", "--spaced", "y"});
  EXPECT_TRUE(a.was_bare("switch"));
  EXPECT_FALSE(a.was_bare("val"));
  EXPECT_FALSE(a.was_bare("spaced"));
  EXPECT_FALSE(a.was_bare("absent"));
}

TEST(ArgsTyped, GetPathRejectsBareFlags) {
  // `--csv` with no value must not become a file literally named "true".
  const Args a = Args::parse({"cmd", "--csv", "--log=run.meclog"});
  EXPECT_THROW(a.get_path("csv"), RuntimeError);
  EXPECT_EQ(a.get_path("log"), "run.meclog");
  EXPECT_EQ(a.get_path("absent"), "");
  EXPECT_EQ(a.get_path("absent", "dflt"), "dflt");
}

TEST(ArgsTyped, LongAcceptsExactIntegerScientificNotation) {
  const Args a = Args::parse({"cmd", "--n=1e6", "--m=1.5e1", "--cap=2.5E3"});
  EXPECT_EQ(a.get_long("n", 0), 1000000);
  EXPECT_EQ(a.get_long("m", 0), 15);
  EXPECT_EQ(a.get_long("cap", 0), 2500);
}

TEST(ArgsTyped, LongStillRejectsNonIntegersAndGarbage) {
  const Args a = Args::parse({"cmd", "--frac=1.5e0", "--junk=1e6x",
                              "--huge=1e20", "--inf=1e999"});
  EXPECT_THROW(a.get_long("frac", 0), RuntimeError);  // 1.5 not an integer
  EXPECT_THROW(a.get_long("junk", 0), RuntimeError);  // trailing garbage
  EXPECT_THROW(a.get_long("huge", 0), RuntimeError);  // out of long range
  EXPECT_THROW(a.get_long("inf", 0), RuntimeError);
}

TEST(ArgsTyped, CountRefusesOutOfRangeValuesByName) {
  const Args a = Args::parse({"cmd", "--n=1e3", "--zero=0", "--neg=-5",
                              "--big=5000", "--frac=2.5"});
  EXPECT_EQ(a.get_count("n", 7, 1), 1000u);
  EXPECT_EQ(a.get_count("absent", 7, 1), 7u);  // the fallback is not checked
  EXPECT_EQ(a.get_count("zero", 7), 0u);       // zero allowed by default
  EXPECT_EQ(a.get_count("big", 7, 0, 5000), 5000u);
  // Each refusal names the flag, the value and the accepted range.
  const struct {
    const char* flag;
    std::size_t min, max;
    const char* message;
  } refused[] = {
      {"neg", 0, SIZE_MAX, "--neg is -5, expected an integer >= 0"},
      {"zero", 1, SIZE_MAX, "--zero is 0, expected an integer >= 1"},
      {"big", 0, 4096, "--big is 5000, expected an integer in [0, 4096]"},
  };
  for (const auto& r : refused) {
    try {
      (void)a.get_count(r.flag, 1, r.min, r.max);
      ADD_FAILURE() << "accepted --" << r.flag;
    } catch (const RuntimeError& e) {
      EXPECT_EQ(std::string(e.what()), r.message);
    }
  }
  EXPECT_THROW((void)a.get_count("frac", 1), RuntimeError);  // not an integer
}

}  // namespace
}  // namespace mec::io
