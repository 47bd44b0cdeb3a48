// Reproduces paper Fig. 9: poisoning via hired real users vs injected
// fake accounts on the Epinions profile (single opponent; item-graph
// actions excluded from every variant for fairness, as in the paper).
//   MSOPDS-real           hired real raters only (no fake accounts)
//   MSOPDS-fake           fake accounts + their social links only
//   MSOPDS-ratings+user   both channels (the Fig. 9 "MSOPDS" reference)
//
// Expected shape (paper): the combined variant is best, and real users
// beat fake accounts (real users are better embedded in the social
// network; fakes only reach the graph through their created links).

#include "bench/bench_util.h"

namespace msopds {
namespace {

int Main(int argc, char** argv) {
  BenchFlags flags;
  flags.repeats = 2;
  flags.datasets = {"epinions"};
  flags.methods = Fig9Methods();
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed);

  PaperSweep sweep;
  sweep.title = StrFormat(
      "=== Fig. 9: real users vs fake accounts (one opponent), scale %.2f "
      "===\n",
      flags.scale);
  sweep.row_header = "variant";
  for (int b : flags.budgets) {
    sweep.columns.push_back({StrFormat("b=%d", b), DefaultGameConfig(), b});
  }
  sweep.after_all = [] {
    std::printf(
        "\nExpected ordering (paper): combined >= real-only >= "
        "fake-only.\n");
  };
  return RunPaperSweep(argc, argv, flags, sweep);
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
