// Reproduces paper Fig. 8: effect of the poisoning-action categories on
// the Epinions profile (single opponent). Variants:
//   MSOPDS-ratings        poison ratings only
//   MSOPDS-ratings+item   ratings + item-graph links
//   MSOPDS-ratings+user   ratings + social-network links
//   MSOPDS                all three categories
//
// Expected shape (paper): full MSOPDS best; item-graph actions help more
// than social-network actions (they hit the target item's embedding
// directly); each partial variant trails the full method.

#include "bench/bench_util.h"

namespace msopds {
namespace {

int Main(int argc, char** argv) {
  BenchFlags flags;
  flags.repeats = 2;
  // The paper runs this ablation on Epinions.
  flags.datasets = {"epinions"};
  flags.methods = Fig8Methods();
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed);

  PaperSweep sweep;
  sweep.title = StrFormat(
      "=== Fig. 8: poisoning-action categories (one opponent), scale %.2f "
      "===\n",
      flags.scale);
  sweep.row_header = "variant";
  for (int b : flags.budgets) {
    sweep.columns.push_back({StrFormat("b=%d", b), DefaultGameConfig(), b});
  }
  sweep.after_all = [] {
    std::printf(
        "\nExpected ordering (paper): MSOPDS >= ratings+item >= "
        "ratings+user >= ratings-only on average.\n");
  };
  return RunPaperSweep(argc, argv, flags, sweep);
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
