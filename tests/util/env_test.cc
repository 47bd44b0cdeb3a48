// The environment switches' one grammar (util/env.h): each switch's and
// each count's text is parsed directly, not through the cached getters
// that read it once per process.

#include "util/env.h"

#include <string>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace msopds {
namespace {

// Parses `value` as the switch `name` and returns the result; `warning`
// receives what the parse printed to stderr.
bool Switch(const char* name, const char* value, bool fallback,
            std::string* warning) {
  testing::internal::CaptureStderr();
  const bool parsed = ParseEnvSwitch(name, value, fallback);
  *warning = testing::internal::GetCapturedStderr();
  return parsed;
}

int64_t Count(const char* name, const char* value, int64_t fallback,
              std::string* warning) {
  testing::internal::CaptureStderr();
  const int64_t parsed =
      ParseEnvCount(name, value, ThreadPool::kMaxThreads, fallback);
  *warning = testing::internal::GetCapturedStderr();
  return parsed;
}

int Lines(const std::string& text) {
  int lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  return lines;
}

void ExpectSwitchGrammar(const char* name) {
  std::string warning;
  EXPECT_FALSE(Switch(name, "0", true, &warning));
  EXPECT_EQ(warning, "");
  EXPECT_TRUE(Switch(name, "1", false, &warning));
  EXPECT_EQ(warning, "");
  EXPECT_TRUE(Switch(name, nullptr, true, &warning));
  EXPECT_FALSE(Switch(name, nullptr, false, &warning));
  EXPECT_EQ(warning, "");
  for (const char* bad : {"off", "false", "on", "", "00", "2", " 1", "0x"}) {
    EXPECT_TRUE(Switch(name, bad, true, &warning)) << name << "=" << bad;
    EXPECT_FALSE(Switch(name, bad, false, &warning)) << name << "=" << bad;
    EXPECT_EQ(Lines(warning), 1) << warning;
    EXPECT_NE(warning.find(name), std::string::npos) << warning;
    EXPECT_NE(warning.find("expected 0 or 1"), std::string::npos) << warning;
  }
}

void ExpectCountGrammar(const char* name) {
  std::string warning;
  EXPECT_EQ(Count(name, "1", 4, &warning), 1);
  EXPECT_EQ(Count(name, "7", 4, &warning), 7);
  EXPECT_EQ(Count(name, "256", 4, &warning), 256);
  EXPECT_EQ(warning, "");
  EXPECT_EQ(Count(name, nullptr, 3, &warning), 3);
  EXPECT_EQ(warning, "");
  for (const char* bad :
       {"4abc", "abc", "", "0", "-2", "257", "2.5", "99999999999999999999"}) {
    EXPECT_EQ(Count(name, bad, 3, &warning), 3) << name << "=" << bad;
    EXPECT_EQ(Lines(warning), 1) << warning;
    EXPECT_NE(warning.find(name), std::string::npos) << warning;
    EXPECT_NE(warning.find("expected an integer in [1, 256]"),
              std::string::npos)
        << warning;
  }
}

TEST(EnvTest, SimdSwitchTakesExactlyZeroOrOne) {
  ExpectSwitchGrammar("MSOPDS_SIMD");
}

TEST(EnvTest, ArenaSwitchTakesExactlyZeroOrOne) {
  ExpectSwitchGrammar("MSOPDS_ARENA");
}

TEST(EnvTest, ThreadsCountTakesAnIntegerInRange) {
  ExpectCountGrammar("MSOPDS_THREADS");
}

TEST(EnvTest, BenchThreadsCountTakesAnIntegerInRange) {
  ExpectCountGrammar("MSOPDS_BENCH_THREADS");
}

}  // namespace
}  // namespace msopds
