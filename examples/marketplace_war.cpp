// Marketplace war: how a promotion campaign survives as more and more
// rival sellers pile on demotion campaigns.
//
// Scenario (paper §VI-C, Fig. 6): our seller promotes the worst-rated
// item of a 50-item market segment to 5% of the user base. After our
// poison lands, N rival sellers each hire real users (planned with
// BOPDS) to 1-star the same item. We compare a naive injection attack
// against MSOPDS, which anticipates the rivals' moves.
//
// Build & run:  ./build/examples/marketplace_war [max_opponents]
// (max_opponents in [0, 100], default 3)

#include <cstdio>

#include "core/experiment.h"
#include "util/flags.h"

using msopds::Dataset;
using msopds::GameConfig;
using msopds::GameResult;
using msopds::MultiplayerGame;

int main(int argc, char** argv) {
  int max_opponents = 3;
  msopds::FlagSet flags(argv[0]);
  flags.Int("max_opponents", &max_opponents, 0, 100);
  const msopds::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return msopds::UsageError(parsed);
  const Dataset base =
      msopds::MakeExperimentDataset("epinions", 0.12, 11);
  std::printf("market: %s\n\n", base.Summary().c_str());

  std::printf("%-12s", "method");
  for (int n = 0; n <= max_opponents; ++n) std::printf("  N=%d rbar/HR ", n);
  std::printf("\n");

  for (const char* method : {"Popular", "Trial", "MSOPDS"}) {
    std::printf("%-12s", method);
    double first = 0.0, last = 0.0;
    for (int n = 0; n <= max_opponents; ++n) {
      GameConfig config = msopds::DefaultGameConfig();
      config.num_opponents = n;
      MultiplayerGame game(base, config);
      const GameResult result =
          game.Run(msopds::MakeAttackFactory(method), /*budget_level=*/5,
                   /*seed=*/19);
      std::printf("  %5.3f/%5.3f", result.average_rating,
                  result.hit_rate_at_3);
      if (n == 0) first = result.average_rating;
      last = result.average_rating;
    }
    std::printf("   (drop %.3f)\n", first - last);
  }

  std::printf(
      "\nThe drop column is the rbar lost between fighting nobody and\n"
      "fighting %d rivals. Every campaign decays as rivals pile on, but\n"
      "the Stackelberg planner keeps the highest absolute standing at\n"
      "every N: its poison was chosen to remain effective *after* the\n"
      "rivals' best responses (the push-pull analysis of Theorem 3).\n"
      "Single seeds are noisy; bench/fig6_num_opponents averages the\n"
      "sweep across datasets.\n",
      max_opponents);
  return 0;
}
