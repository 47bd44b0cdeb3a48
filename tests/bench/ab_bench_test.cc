// The A/B reporter of the google-benchmark binaries (bench/ab_bench.h):
// each binary, run on a few cases in a fresh directory, writes exactly
// one JSON table there, and the table pairs every case with a "simd",
// "threads" or "arena" partner, with each side's counters.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

namespace msopds {
namespace {

#if defined(__unix__) || defined(__APPLE__)

/// One binary's run: its filter, the table it must write, and the
/// opening of each row that table must hold.
struct AbRun {
  std::string binary;
  std::string filter;
  std::string table;
  std::vector<std::string> rows;
};

int Count(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(AbBenchTest, EachBinaryWritesOneTableOfPairs) {
  const std::vector<AbRun> runs = {
      {"simd_bench",
       "ElementwiseChain",
       "BENCH_simd.json",
       {R"({"name":"BM_SimdElementwiseChain","kind":"simd","baseline":0,)"
        R"("variant":1,"t_baseline_ns":)"}},
      {"micro_autodiff",
       "BM_MemTrainStepAllocs|BM_SegmentSoftmaxParallel",
       "BENCH_micro_autodiff.json",
       {R"({"name":"BM_MemTrainStepAllocs","kind":"arena","baseline":0,)"
        R"("variant":1,"t_baseline_ns":)",
        R"({"name":"BM_SegmentSoftmaxParallel/n:4096","kind":"threads",)"
        R"("baseline":1,"variant":4,"t_baseline_ns":)"}},
      {"micro_recsys",
       "BM_MemVictimEpochAllocs|BM_VictimTrainingEpochParallel",
       "BENCH_micro_recsys.json",
       {R"({"name":"BM_MemVictimEpochAllocs","kind":"arena","baseline":0,)"
        R"("variant":1,"t_baseline_ns":)",
        R"({"name":"BM_VictimTrainingEpochParallel/n:300","kind":"threads",)"
        R"("baseline":1,"variant":4,"t_baseline_ns":)"}},
  };
  for (const AbRun& run : runs) {
    SCOPED_TRACE(run.binary);
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / ("ab_" + run.binary);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string command =
        "cd '" + dir.string() + "' && " MSOPDS_BENCH_DIR "/" + run.binary +
        " --benchmark_filter='" + run.filter +
        "' --benchmark_min_time=0.01 > stdout.txt 2> stderr.txt";
    const int status = std::system(command.c_str());  // NOLINT
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "status " << status;

    std::vector<std::string> tables;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name != "stdout.txt" && name != "stderr.txt") tables.push_back(name);
    }
    ASSERT_EQ(tables, std::vector<std::string>{run.table});
    std::ifstream in(dir / run.table);
    std::stringstream contents;
    contents << in.rdbuf();
    const std::string table = contents.str();
    EXPECT_EQ(table.rfind(R"({"backend":)", 0), 0u) << table;
    EXPECT_EQ(Count(table, R"("kind":)"),
              static_cast<int>(run.rows.size()))
        << table;
    for (const std::string& row : run.rows) {
      EXPECT_EQ(Count(table, row), 1) << row << "\n" << table;
    }
    // The arena pairs carry each side's allocation counters.
    EXPECT_EQ(Count(table, R"("baseline_counters":{"mem_allocs_per_step":)"),
              run.binary == "simd_bench" ? 0 : 1)
        << table;
    EXPECT_EQ(Count(table, R"("variant_counters":{"mem_allocs_per_step":)"),
              run.binary == "simd_bench" ? 0 : 1)
        << table;
    if (!HasFailure()) std::filesystem::remove_all(dir);
  }
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace msopds
