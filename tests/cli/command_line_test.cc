// Every bench, tool and example refuses a malformed or out-of-range
// command-line value before it does any work: exit status 2, the flag's
// name on stderr, nothing on stdout, and nothing created on disk (no
// sweep work directory, JSON table or temporary directory). Each refused
// value is appended after valid base arguments that keep a run small, so
// a binary that silently falls back to a default runs and fails here.

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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// One refused argument and the text stderr must name; for a flag that
/// is the flag itself.
struct Refusal {
  std::string arg;
  std::string named;
};

Refusal Flag(const std::string& arg) {
  return {arg, arg.substr(0, arg.find('='))};
}

/// Runs `binary` once per refusal as `binary <base> <refusal.arg>`, with
/// every '@' in `base` replaced by a fresh directory that also holds the
/// run's TMPDIR, and expects the refusal and an untouched directory.
void ExpectRefused(const std::string& binary, const std::string& base,
                   const std::vector<Refusal>& refusals) {
  const std::string name = std::filesystem::path(binary).filename().string();
  for (const Refusal& refusal : refusals) {
    SCOPED_TRACE(name + " " + refusal.arg);
    const std::string dir = testing::TempDir() + "/cli_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/tmp");
    std::string args = base;
    for (size_t at = args.find('@'); at != std::string::npos;
         at = args.find('@', at + dir.size())) {
      args.replace(at, 1, dir);
    }
    // A binary that ignores the value would run; the timeout bounds it.
    const std::string command = "TMPDIR=" + dir + "/tmp timeout 10 " +
                                binary + " " + args + " '" + refusal.arg +
                                "' > " + dir + "/stdout.txt 2> " + dir +
                                "/stderr.txt";
    const int status = std::system(command.c_str());  // NOLINT
    const std::string err = ReadFile(dir + "/stderr.txt");
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
        << "status " << status << "\n" << err;
    EXPECT_NE(err.find(refusal.named), std::string::npos) << err;
    EXPECT_EQ(ReadFile(dir + "/stdout.txt"), "");
    std::vector<std::string> created;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      const std::string path =
          std::filesystem::relative(entry.path(), dir).string();
      if (path != "stdout.txt" && path != "stderr.txt" && path != "tmp") {
        created.push_back(path);
      }
    }
    EXPECT_TRUE(created.empty()) << "created " << created.front();
  }
}

std::string Bench(const std::string& name) {
  return std::string(MSOPDS_BENCH_DIR) + "/" + name;
}

std::string Example(const std::string& name) {
  return std::string(MSOPDS_EXAMPLES_DIR) + "/" + name;
}

TEST(CommandLineTest, PaperBenchesRefuseMalformedValues) {
  const std::vector<Refusal> refusals = {
      Flag("--scale=abc"),       Flag("--scale=-1"),
      Flag("--scale=0.001"),     Flag("--repeats=abc"),
      Flag("--repeats=0"),       Flag("--seed=abc"),
      Flag("--budgets=x"),       Flag("--budgets=2,0"),
      Flag("--opponents=0"),     Flag("--threads=-5"),
      Flag("--fault_nan=garbage"), Flag("--fault_nan=1.5"),
      Flag("--fault_cg=-0.1"),   Flag("--fault_seed=abc"),
      Flag("--fault_crash_cell=abc"), Flag("--workers=-2"),
      Flag("--worker_id=abc"),
  };
  for (const char* bench :
       {"table3_single_opponent", "fig6_num_opponents",
        "fig7_opponent_capacity", "fig8_action_categories",
        "fig9_real_vs_fake"}) {
    ExpectRefused(Bench(bench),
                  "--datasets=ciao --scale=0.02 --budgets=2 --opponents=1"
                  " --methods=None --repeats=1 --threads=1"
                  " --checkpoint=@/ckpt",
                  refusals);
  }
}

TEST(CommandLineTest, ExtModerationRefusesMalformedValues) {
  ExpectRefused(Bench("ext_moderation"),
                "--datasets=ciao --scale=0.02 --repeats=1 --methods=Random"
                " --threads=1",
                {Flag("--scale=abc"), Flag("--scale=0.001"),
                 Flag("--repeats=abc"), Flag("--seed=abc"),
                 Flag("--threads=-5")});
}

TEST(CommandLineTest, QuantBenchRefusesMalformedValues) {
  ExpectRefused(Bench("quant_bench"),
                "--users=50 --items=60 --dim=4 --k=3 --threads=1 --reps=1"
                " --dot_ms=1 --sample_users=8 --json_out=@/quant.json",
                {Flag("--users=x"), Flag("--items=x"), Flag("--dim=abc"),
                 Flag("--k=-3"), Flag("--threads=1,abc"),
                 Flag("--reps=abc"), Flag("--dot_ms=abc"),
                 Flag("--sample_users=abc"), Flag("--seed=abc")});
}

TEST(CommandLineTest, ServeBenchRefusesMalformedValues) {
  ExpectRefused(
      Bench("serve_bench"),
      "--users=50 --items=60 --dim=4 --k=3 --seconds=0.05 --clients=1"
      " --qps=100 --threads=1 --overload=0 --swap_ms=0"
      " --json_out=@/serve.json",
      {Flag("--users=abc"), Flag("--items=abc"), Flag("--dim=abc"),
       Flag("--k=abc"), Flag("--seconds=abc"), Flag("--clients=abc"),
       Flag("--qps=abc"), Flag("--threads=abc"), Flag("--batch=abc"),
       Flag("--wait_us=abc"), Flag("--max_queue=abc"),
       Flag("--deadline_us=abc"), Flag("--degrade_depth=abc"),
       Flag("--max_batch_cost=abc"), Flag("--retry_attempts=abc"),
       Flag("--retry_budget_us=abc"), Flag("--overload=abc"),
       Flag("--overload_factor=abc"), Flag("--chaos_requests=abc"),
       Flag("--fault_seed=abc"), Flag("--fault_publish=2"),
       Flag("--fault_score=abc"), Flag("--fault_batch_delay=abc"),
       Flag("--fault_batch_delay_us=abc"), Flag("--swap_ms=abc"),
       Flag("--seed=abc"), Flag("--precision=fp16")});
}

TEST(CommandLineTest, ScaleBenchRefusesMalformedValues) {
  ExpectRefused(Bench("scale_bench"),
                "--users=64 --ratings_per_user=2 --epochs=1 --dim=2"
                " --work_dir=@/work --json_out=@/scale.json",
                {Flag("--users=x"), Flag("--users=64,-1"),
                 Flag("--ratings_per_user=abc"), Flag("--epochs=abc"),
                 Flag("--dim=abc"), Flag("--seed=abc"),
                 Flag("--shards=abc"), Flag("--phase=bogus"),
                 Flag("--keep_work_dir=maybe")});
}

TEST(CommandLineTest, AttackLabRefusesMalformedValuesAndNames) {
  ExpectRefused(Example("attack_lab"),
                "--dataset=ciao --scale=0.02 --method=None",
                {Flag("--budget=abc"), Flag("--budget=0"),
                 Flag("--opponents=abc"), Flag("--opponent-budget=abc"),
                 Flag("--scale=abc"), Flag("--seed=abc"),
                 {"--method=Bogus", "unknown attack method 'Bogus'"},
                 {"--dataset=nowhere", "unknown dataset profile 'nowhere'"}});
}

TEST(CommandLineTest, ExamplesRefuseMalformedPositionalNumbers) {
  ExpectRefused(Example("dataset_tour"), "",
                {{"abc", "scale"}, {"-1", "scale"}});
  ExpectRefused(Example("marketplace_war"), "",
                {{"abc", "max_opponents"}, {"-1", "max_opponents"}});
}

TEST(CommandLineTest, DeterminismLintRefusesMalformedSwitch) {
  ExpectRefused(std::string(MSOPDS_TOOLS_DIR) + "/determinism_lint", "",
                {Flag("--quiet=maybe")});
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace msopds
