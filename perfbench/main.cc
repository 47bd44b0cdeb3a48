// End-to-end benchmark driver. Runs one workload and prints, as the last
// line of standard output, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//             [--out-dir DIR] [--git-sha SHA] [--git-dirty 0|1]
//
// Defaults: seed 1, 20 seconds, untraced.
//
// Workloads: game-msopds, serve-topk, ingest-train. See
// perfbench/BENCHMARK.md for what each measures and why.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <game-msopds|"
               "serve-topk|ingest-train> [--seed <n>] [--seconds <s>] "
               "[--trace <0|1>] [--out-dir DIR] [--git-sha SHA] "
               "[--git-dirty 0|1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--git-dirty") {
      options.git_dirty = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  std::filesystem::create_directories(options.out_dir);

  perfbench::Outcome outcome;
  if (options.workload == "game-msopds") {
    outcome = perfbench::RunGameWorkload(perfbench::GameCell{}, options);
  } else if (options.workload == "serve-topk") {
    outcome = perfbench::RunServeWorkload(perfbench::ServeShape{}, options);
  } else if (options.workload == "ingest-train") {
    outcome = perfbench::RunIngestWorkload(perfbench::IngestShape{}, options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  std::fprintf(stderr, "perfbench: %zu timed ops in %.3f s; set-ups (s):",
               outcome.op_ms.size(), outcome.timed_s);
  for (double s : outcome.setup_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "perfbench: failed op: %s\n", failure.c_str());
  }
  std::printf("%s\n", perfbench::ProvenanceLine(perfbench::Provenance(options))
                          .c_str());
  std::printf("%s\n", perfbench::ResultLine(outcome, options.trace).c_str());
  return 0;
}
