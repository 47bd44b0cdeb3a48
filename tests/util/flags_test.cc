#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace msopds {
namespace {

/// Parses `args` (without argv[0]) against `flags`.
Status ParseArgs(const FlagSet& flags, std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("/bin/prog")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

/// The message of a failed parse; "" when it succeeded.
std::string Error(const FlagSet& flags, std::vector<std::string> args) {
  const Status status = ParseArgs(flags, std::move(args));
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  return status.message();
}

TEST(FlagsTest, IntegersAcceptTheirInclusiveRangeOnly) {
  int repeats = 7;
  FlagSet flags("prog");
  flags.Int("--repeats", &repeats, 1, 100);
  EXPECT_EQ(Error(flags, {"--repeats=1"}), "");
  EXPECT_EQ(repeats, 1);
  EXPECT_EQ(Error(flags, {"--repeats=100"}), "");
  EXPECT_EQ(repeats, 100);
  EXPECT_EQ(Error(flags, {"--repeats=0"}),
            "prog: --repeats=0: expected an integer in [1, 100]");
  EXPECT_EQ(Error(flags, {"--repeats=101"}),
            "prog: --repeats=101: expected an integer in [1, 100]");
  EXPECT_EQ(repeats, 100);
}

TEST(FlagsTest, IntegersRejectTextFractionsAndEmptyValues) {
  int64_t users = 5;
  FlagSet flags("prog");
  flags.Int("--users", &users, 1);
  for (const char* bad : {"--users=abc", "--users=4abc", "--users=2.5",
                          "--users=", "--users=1e3"}) {
    EXPECT_EQ(Error(flags, {bad}),
              std::string("prog: ") + bad + ": expected an integer >= 1")
        << bad;
  }
  EXPECT_EQ(users, 5);
}

TEST(FlagsTest, IntegerRangesClampToTheDestinationType) {
  int threads = 0;
  uint64_t seed = 0;
  FlagSet flags("prog");
  flags.Int("--threads", &threads, 0);
  flags.Int("--seed", &seed, 0);
  EXPECT_EQ(Error(flags, {"--threads=3000000000"}),
            "prog: --threads=3000000000: expected an integer in "
            "[0, 2147483647]");
  EXPECT_EQ(Error(flags, {"--seed=9223372036854775807"}), "");
  EXPECT_EQ(seed, 9223372036854775807ULL);
  EXPECT_EQ(Error(flags, {"--seed=-1"}),
            "prog: --seed=-1: expected an integer >= 0");
}

TEST(FlagsTest, DoublesAcceptFiniteValuesInRange) {
  double p = 0.5;
  FlagSet flags("prog");
  flags.Double("--fault_nan", &p, 0.0, 1.0);
  EXPECT_EQ(Error(flags, {"--fault_nan=0"}), "");
  EXPECT_EQ(p, 0.0);
  EXPECT_EQ(Error(flags, {"--fault_nan=1"}), "");
  EXPECT_EQ(p, 1.0);
  EXPECT_EQ(Error(flags, {"--fault_nan=2.5e-1"}), "");
  EXPECT_EQ(p, 0.25);
  for (const char* bad : {"--fault_nan=garbage", "--fault_nan=1.01",
                          "--fault_nan=-0.1", "--fault_nan=nan",
                          "--fault_nan=", "--fault_nan=0.5x"}) {
    EXPECT_EQ(Error(flags, {bad}),
              std::string("prog: ") + bad + ": expected a number in [0, 1]")
        << bad;
  }
  EXPECT_EQ(p, 0.25);
}

TEST(FlagsTest, UnboundedDoublesStillRejectInfinity) {
  double seconds = 1.0;
  FlagSet flags("prog");
  flags.Double("--seconds", &seconds, 0.0);
  EXPECT_EQ(Error(flags, {"--seconds=inf"}),
            "prog: --seconds=inf: expected a number >= 0");
  EXPECT_EQ(Error(flags, {"--seconds=1e300"}), "");
  EXPECT_EQ(seconds, 1e300);
}

TEST(FlagsTest, ListsReplaceTheDefaultAndCheckEveryElement) {
  std::vector<int> budgets = {2, 3, 4, 5};
  std::vector<std::string> methods = {"None"};
  FlagSet flags("prog");
  flags.IntList("--budgets", &budgets, 1, 100);
  flags.StringList("--methods", &methods);
  EXPECT_EQ(Error(flags, {"--budgets=7,1,100", "--methods=Random,PGA"}), "");
  EXPECT_EQ(budgets, (std::vector<int>{7, 1, 100}));
  EXPECT_EQ(methods, (std::vector<std::string>{"Random", "PGA"}));
  for (const char* bad : {"--budgets=x", "--budgets=2,0", "--budgets=2,,3",
                          "--budgets=", "--budgets=2,"}) {
    EXPECT_EQ(Error(flags, {bad}),
              std::string("prog: ") + bad +
                  ": expected a comma list of integers in [1, 100]")
        << bad;
  }
  EXPECT_EQ(budgets, (std::vector<int>{7, 1, 100}));
  EXPECT_EQ(Error(flags, {"--methods=None,"}),
            "prog: --methods=None,: expected a comma list of non-empty "
            "names");
}

TEST(FlagsTest, ChoicesAcceptOnlyTheirNames) {
  std::string precision = "fp64";
  FlagSet flags("prog");
  flags.Choice("--precision", &precision, {"fp64", "int8"});
  EXPECT_EQ(Error(flags, {"--precision=int8"}), "");
  EXPECT_EQ(precision, "int8");
  EXPECT_EQ(Error(flags, {"--precision=fp16"}),
            "prog: --precision=fp16: expected one of fp64, int8");
  EXPECT_EQ(Error(flags, {"--precision="}),
            "prog: --precision=: expected one of fp64, int8");
}

TEST(FlagsTest, BoolsTakeABareNameOrZeroOrOne) {
  bool json = false;
  FlagSet flags("prog");
  flags.Bool("--json", &json);
  EXPECT_EQ(Error(flags, {"--json"}), "");
  EXPECT_TRUE(json);
  EXPECT_EQ(Error(flags, {"--json=0"}), "");
  EXPECT_FALSE(json);
  EXPECT_EQ(Error(flags, {"--json=1"}), "");
  EXPECT_TRUE(json);
  for (const char* bad : {"--json=yes", "--json=2", "--json="}) {
    EXPECT_EQ(Error(flags, {bad}),
              std::string("prog: ") + bad + ": expected 0 or 1")
        << bad;
  }
}

TEST(FlagsTest, StringsTakeAnyTextAndLaterFlagsOverrideEarlierOnes) {
  std::string checkpoint = "default";
  int threads = 0;
  FlagSet flags("prog");
  flags.String("--checkpoint", &checkpoint);
  flags.Int("--threads", &threads, 0, 256);
  EXPECT_EQ(Error(flags, {"--checkpoint=a=b", "--threads=1",
                          "--threads=2"}),
            "");
  EXPECT_EQ(checkpoint, "a=b");
  EXPECT_EQ(threads, 2);
  EXPECT_EQ(Error(flags, {"--checkpoint="}), "");
  EXPECT_EQ(checkpoint, "");
}

TEST(FlagsTest, ValuedFlagWithoutEqualsNeedsAValue) {
  double scale = 0.12;
  FlagSet flags("prog");
  flags.Double("--scale", &scale, 0.002, 100.0);
  EXPECT_EQ(Error(flags, {"--scale"}),
            "prog: --scale needs a value: --scale=<a number in [0.002, "
            "100]>");
  EXPECT_EQ(scale, 0.12);
}

TEST(FlagsTest, UnknownFlagsAndArgumentsNameWhatIsAccepted) {
  double scale = 0.12;
  bool quiet = false;
  FlagSet flags("/path/to/ext_moderation");
  flags.Double("--scale", &scale, 0.002, 100.0);
  flags.Bool("--quiet", &quiet);
  EXPECT_EQ(Error(flags, {"--workers=4"}),
            "ext_moderation does not take --workers; it takes --scale, "
            "--quiet");
  EXPECT_EQ(Error(flags, {"--scale_x=1"}),
            "ext_moderation does not take --scale_x; it takes --scale, "
            "--quiet");
  EXPECT_EQ(Error(flags, {"extra"}),
            "ext_moderation does not take 'extra'; it takes --scale, "
            "--quiet");
  EXPECT_EQ(Error(FlagSet("prog"), {"-x"}),
            "prog does not take '-x'; it takes no arguments");
}

TEST(FlagsTest, PositionalsFillInDeclarationOrder) {
  double scale = 0.15;
  int max_opponents = 3;
  FlagSet flags("prog");
  flags.Double("scale", &scale, 0.002, 100.0);
  flags.Int("max_opponents", &max_opponents, 0, 100);
  EXPECT_EQ(Error(flags, {}), "");
  EXPECT_EQ(scale, 0.15);
  EXPECT_EQ(Error(flags, {"0.5", "7"}), "");
  EXPECT_EQ(scale, 0.5);
  EXPECT_EQ(max_opponents, 7);
  EXPECT_EQ(Error(flags, {"0.5", "-1"}),
            "prog: max_opponents=-1: expected an integer in [0, 100]");
  EXPECT_EQ(Error(flags, {"abc"}),
            "prog: scale=abc: expected a number in [0.002, 100]");
  EXPECT_EQ(Error(flags, {"0.5", "7", "8"}),
            "prog does not take '8'; it takes scale, max_opponents");
  // A positional name is not a flag name.
  EXPECT_EQ(Error(flags, {"--scale=0.5"}),
            "prog does not take --scale; it takes scale, max_opponents");
}

}  // namespace
}  // namespace msopds
