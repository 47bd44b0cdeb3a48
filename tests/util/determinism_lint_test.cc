#include "util/determinism_lint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace msopds {
namespace {

namespace fs = std::filesystem;

// Writes injected fixture trees under the test temp dir and lints them.
// Each test asserts the linter fires on a planted violation and stays
// quiet once the violation is fixed or legitimately suppressed.
class DeterminismLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each test as its own process, possibly
    // in parallel, so a shared fixture path races on remove_all.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("determinism_lint_fixture_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void WriteFile(const std::string& rel, const std::string& content) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out(path);
    out << content;
  }

  LintReport Lint() { return RunDeterminismLint(root_.string()); }

  std::vector<std::string> Rules(const LintReport& report) {
    std::vector<std::string> rules;
    for (const LintFinding& finding : report.findings) {
      rules.push_back(finding.rule);
    }
    return rules;
  }

  fs::path root_;
};

TEST_F(DeterminismLintTest, CleanFileHasNoFindings) {
  WriteFile("core/clean.cc",
            "#include \"util/sync.h\"\n"
            "namespace msopds {\n"
            "int Twice(int x) { return 2 * x; }\n"
            "}  // namespace msopds\n");
  const LintReport report = Lint();
  EXPECT_EQ(report.files_scanned, 1);
  EXPECT_EQ(report.checks_run, kNumLintRules);
  EXPECT_TRUE(report.ok()) << FormatLintReport(report);
}

TEST_F(DeterminismLintTest, RawMutexOutsideSyncHeaderIsFlagged) {
  WriteFile("serve/raw.cc",
            "#include <mutex>\n"
            "std::mutex g_mu;\n"
            "void F() { std::lock_guard<std::mutex> lock(g_mu); }\n");
  const LintReport report = Lint();
  ASSERT_FALSE(report.ok());
  for (const std::string& rule : Rules(report)) {
    EXPECT_EQ(rule, "raw-sync");
  }
  EXPECT_GE(report.findings.size(), 2u);  // the include and the uses
}

TEST_F(DeterminismLintTest, SyncHeaderItselfIsExemptFromRawSync) {
  WriteFile("util/sync.h",
            "#include <mutex>\n"
            "class Mutex { std::mutex mu_; };\n");
  EXPECT_TRUE(Lint().ok());
}

TEST_F(DeterminismLintTest, AmbientRngIsFlaggedOutsideRngUnit) {
  WriteFile("attack/seedless.cc",
            "#include <cstdlib>\n"
            "int Draw() { return std::rand(); }\n"
            "long Now() { return time(nullptr); }\n");
  const LintReport report = Lint();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.findings.size(), 2u);
  for (const std::string& rule : Rules(report)) {
    EXPECT_EQ(rule, "ambient-rng");
  }

  WriteFile("attack/seedless.cc", "int Draw(int x) { return x; }\n");
  WriteFile("util/rng.cc",
            "#include <random>\n"
            "unsigned Seed() { return std::random_device{}(); }\n");
  EXPECT_TRUE(Lint().ok());  // util/rng is the one sanctioned entropy tap
}

TEST_F(DeterminismLintTest, UnorderedIterationIsFlaggedUnlessMarked) {
  const std::string loop =
      "#include <unordered_map>\n"
      "#include <string>\n"
      "int Total(const std::unordered_map<std::string, int>& m) {\n"
      "  std::unordered_map<std::string, int> copy = m;\n"
      "  int total = 0;\n"
      "  for (const auto& entry : copy) total += entry.second;\n"
      "  return total;\n"
      "}\n";
  WriteFile("graph/iter.cc", loop);
  const LintReport report = Lint();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.findings[0].rule, "unordered-iteration");
  EXPECT_EQ(report.findings[0].file, "graph/iter.cc");

  // The same loop, proven commutative and annotated, passes.
  std::string marked = loop;
  marked.insert(marked.find("  for (const auto&"),
                "  // determinism-lint: order-insensitive (commutative +=)\n");
  WriteFile("graph/iter.cc", marked);
  EXPECT_TRUE(Lint().ok());
}

TEST_F(DeterminismLintTest, UnguardedMemberOfMutexOwnerIsFlagged) {
  WriteFile("serve/guarded.h",
            "#include \"util/sync.h\"\n"
            "class Engine {\n"
            "  Mutex mu_;\n"
            "  int guarded_ MSOPDS_GUARDED_BY(mu_) = 0;\n"
            "  int racy_ = 0;\n"
            "};\n");
  const LintReport report = Lint();
  ASSERT_EQ(report.findings.size(), 1u) << FormatLintReport(report);
  EXPECT_EQ(report.findings[0].rule, "unguarded-member");
  EXPECT_NE(report.findings[0].message.find("racy_"), std::string::npos);

  // Atomics, the documented-unguarded marker, and GUARDED_BY all pass.
  WriteFile("serve/guarded.h",
            "#include \"util/sync.h\"\n"
            "#include <atomic>\n"
            "class Engine {\n"
            "  Mutex mu_;\n"
            "  int guarded_ MSOPDS_GUARDED_BY(mu_) = 0;\n"
            "  std::atomic<int> counter_{0};\n"
            "  int racy_ = 0;  // determinism-lint: unguarded(set once "
            "before threads start)\n"
            "};\n");
  EXPECT_TRUE(Lint().ok());
}

TEST_F(DeterminismLintTest, RawSimdIntrinsicsFlaggedOutsideSimdHeader) {
  WriteFile("serve/fast_scorer.cc",
            "#include <immintrin.h>\n"
            "double DotFast(const double* a, const double* b) {\n"
            "  __m256d va = _mm256_loadu_pd(a);\n"
            "  __m256d vb = _mm256_loadu_pd(b);\n"
            "  __m256d prod = _mm256_mul_pd(va, vb);\n"
            "  (void)prod;\n"
            "  return 0.0;\n"
            "}\n");
  const LintReport report = Lint();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.findings.size(), 4u);  // the include and the uses
  for (const std::string& rule : Rules(report)) {
    EXPECT_EQ(rule, "raw-simd");
  }
}

TEST_F(DeterminismLintTest, NeonIntrinsicsAndLaneTypesFlagged) {
  WriteFile("core/neon_hack.cc",
            "#include <arm_neon.h>\n"
            "double Sum2(const double* a) {\n"
            "  float64x2_t acc = vld1q_f64(a);\n"
            "  acc = vaddq_f64(acc, acc);\n"
            "  return vgetq_lane_f64(acc, 0);\n"
            "}\n");
  const LintReport report = Lint();
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.findings.size(), 3u);
  for (const std::string& rule : Rules(report)) {
    EXPECT_EQ(rule, "raw-simd");
  }
}

TEST_F(DeterminismLintTest, SimdHeaderItselfIsExemptFromRawSimd) {
  WriteFile("tensor/simd.h",
            "#include <immintrin.h>\n"
            "inline __m256d Two(__m256d x) { return _mm256_add_pd(x, x); }\n");
  EXPECT_TRUE(Lint().ok());
}

TEST_F(DeterminismLintTest, AllowSimdMarkerSuppressesRawSimd) {
  WriteFile("bench/lanes.cc",
            "// lint:allow-simd (measures raw lane throughput, not numerics)\n"
            "unsigned CacheLine() { return _mm_crc32_u8(0, 1); }\n");
  EXPECT_TRUE(Lint().ok());

  WriteFile("bench/lanes.cc",
            "// determinism-lint: allow(raw-simd) (same, generic marker)\n"
            "unsigned CacheLine() { return _mm_crc32_u8(0, 1); }\n");
  EXPECT_TRUE(Lint().ok());

  WriteFile("bench/lanes.cc",
            "unsigned CacheLine() { return _mm_crc32_u8(0, 1); }\n");
  EXPECT_FALSE(Lint().ok());
}

TEST_F(DeterminismLintTest, AllowMarkerSuppressesASingleLine) {
  WriteFile("solver/special.cc",
            "// determinism-lint: allow(ambient-rng) (wall-clock telemetry "
            "only, never numerics)\n"
            "long Stamp() { return time(nullptr); }\n");
  EXPECT_TRUE(Lint().ok());
}

TEST_F(DeterminismLintTest, ViolationsInsideCommentsAndStringsIgnored) {
  WriteFile("docs/commented.cc",
            "// std::mutex is banned; use util/sync.h instead.\n"
            "/* for (const auto& e : unordered) would be flagged */\n"
            "const char* kMessage = \"std::rand() and time() are banned\";\n");
  EXPECT_TRUE(Lint().ok());
}

TEST_F(DeterminismLintTest, BlockingWaitIsFlaggedUnlessAnnotated) {
  WriteFile("serve/bare.cc",
            "void F(CondVar& cv, MutexLock& l) { cv.Wait(l); }\n");
  WriteFile("serve/annotated.cc",
            "void F(CondVar& cv, MutexLock& l) {\n"
            "  cv.Wait(l);  // lint:allow-blocking-wait (lifecycle-bounded)\n"
            "}\n");
  WriteFile("serve/future_user.cc",
            "#include <future>\n"
            "int F(std::promise<int>& p) { return p.get_future().get(); }\n");
  WriteFile("serve/no_future.cc",
            "int* F(std::unique_ptr<int>& p) { return Owner(p).get(); }\n");
  WriteFile("serve/commented.cc",
            "// Callers must never cv.Wait(lock) here; use WaitFor.\n"
            "int Zero() { return 0; }\n");
  const LintReport report = Lint();
  ASSERT_EQ(report.findings.size(), 2u) << FormatLintReport(report);
  EXPECT_EQ(report.findings[0].file, "serve/bare.cc");
  EXPECT_EQ(report.findings[0].line, 1);
  EXPECT_EQ(report.findings[1].file, "serve/future_user.cc");
  EXPECT_EQ(report.findings[1].line, 2);
  for (const std::string& rule : Rules(report)) {
    EXPECT_EQ(rule, "blocking-wait");
  }
}

TEST_F(DeterminismLintTest, ReportFormatNamesFileLineAndRule) {
  WriteFile("serve/raw.cc", "#include <mutex>\n");
  const LintReport report = Lint();
  ASSERT_FALSE(report.ok());
  const std::string text = FormatLintReport(report);
  EXPECT_NE(text.find("serve/raw.cc:1"), std::string::npos) << text;
  EXPECT_NE(text.find("[raw-sync]"), std::string::npos) << text;
}

}  // namespace
}  // namespace msopds
