// Reproduces paper Fig. 7: impact of the single opponent's budget b_op on
// the attacker's rbar and HitRate@3, at attacker budget b = 5.
//
// Expected shape (paper): raising the opponent's budget hurts every
// attacker, but MSOPDS degrades less than the baselines because it
// anticipated the demotion campaign; Epinions/LibraryThing profiles are
// more sensitive than Ciao (sparser ratings).

#include "bench/bench_util.h"

namespace msopds {
namespace {

int Main(int argc, char** argv) {
  BenchFlags flags;
  flags.repeats = 1;
  flags.methods = StandardMethods();
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed);
  const int attacker_budget = 5;

  PaperSweep sweep;
  sweep.title = StrFormat(
      "=== Fig. 7: opponent capacity sweep (b = %d, one opponent), scale "
      "%.2f ===\n",
      attacker_budget, flags.scale);
  for (int bop : flags.opponents) {
    GameConfig config = DefaultGameConfig();
    config.num_opponents = 1;
    config.opponent_budget_level = bop;
    sweep.columns.push_back(
        {StrFormat("b_op=%d", bop), config, attacker_budget});
  }
  sweep.after_table = [&](const SweepTable& table) {
    double msopds_drop = 0.0, baseline_drop = 0.0;
    if (RbarDrops(flags.methods, table, &msopds_drop, &baseline_drop)) {
      std::printf(
          "  -> MSOPDS rbar drop across b_op sweep: %.4f; best baseline "
          "drop: %.4f (paper: MSOPDS suffers smaller degradation)\n",
          msopds_drop, baseline_drop);
    }
  };
  return RunPaperSweep(argc, argv, flags, sweep);
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
