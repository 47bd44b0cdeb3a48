// Reproduces paper Fig. 6: impact of the number of subsequent opponents
// (each running a BOPDS rating-only demotion with b_op = 2) on the
// attacker's rbar and HitRate@3, at attacker budget b = 5.
//
// Expected shape (paper): every method degrades as opponents are added,
// but MSOPDS degrades least and stays on top; baselines can collapse to
// HR@3 = 0 while MSOPDS remains positive (esp. the Epinions profile).

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
      "=== Fig. 6: number of opponents (b = %d, b_op = 2), scale %.2f ===\n",
      attacker_budget, flags.scale);
  for (int n : flags.opponents) {
    GameConfig config = DefaultGameConfig();
    config.num_opponents = n;
    sweep.columns.push_back({StrFormat("N=%d", n), config, attacker_budget});
  }
  sweep.after_table = [&](const SweepTable& table) {
    double msopds_drop = 0.0, baseline_drop = 0.0;
    if (RbarDrops(flags.methods, table, &msopds_drop, &baseline_drop)) {
      std::printf("  -> MSOPDS rbar drop over opponent sweep: %.4f; best "
                  "baseline drop: %.4f (paper: MSOPDS degrades less)\n",
                  msopds_drop, baseline_drop);
    }
  };
  return RunPaperSweep(argc, argv, flags, sweep);
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
