// attack_lab: a command-line harness for single experiments with
// machine-readable output — the "run one cell" companion to the bench
// binaries.
//
// Usage:
//   ./build/examples/attack_lab [--dataset=epinions] [--method=MSOPDS]
//       [--budget=5] [--opponents=1] [--opponent-budget=2]
//       [--scale=0.12] [--seed=7] [--json]
//
// A malformed or out-of-range value, or an unknown dataset or method,
// exits 2 before anything runs.
//
// With --json the result is printed as a single JSON object (see
// msopds::GameResultToJson), convenient for scripting sweeps.

#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "data/synthetic.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  std::string dataset_name = "epinions";
  std::string method = "MSOPDS";
  int budget = 5;
  int opponents = 1;
  int opponent_budget = 2;
  double scale = 0.12;
  uint64_t seed = 7;
  bool as_json = false;

  // Budget levels are percentages of the user count
  // (AttackBudget::FromLevel).
  msopds::FlagSet flags(argv[0]);
  flags.String("--dataset", &dataset_name);
  flags.String("--method", &method);
  flags.Int("--budget", &budget, 1, 100);
  flags.Int("--opponents", &opponents, 0, 100);
  flags.Int("--opponent-budget", &opponent_budget, 1, 100);
  flags.Double("--scale", &scale, msopds::kMinProfileScale,
               msopds::kMaxProfileScale);
  flags.Int("--seed", &seed, 0);
  flags.Bool("--json", &as_json);
  const msopds::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return msopds::UsageError(parsed);
  const msopds::Status names =
      msopds::CheckExperimentNames({dataset_name}, {method});
  if (!names.ok()) return msopds::UsageError(names);

  const msopds::Dataset base =
      msopds::MakeExperimentDataset(dataset_name, scale, seed);
  msopds::GameConfig config = msopds::DefaultGameConfig();
  config.num_opponents = opponents;
  config.opponent_budget_level = opponent_budget;
  msopds::MultiplayerGame game(base, config);
  const msopds::GameResult result =
      game.Run(msopds::MakeAttackFactory(method), budget, seed + 1);

  if (as_json) {
    std::printf("%s\n", msopds::GameResultToJson(result).c_str());
  } else {
    std::printf("%s\n", base.Summary().c_str());
    std::printf(
        "method=%s b=%d opponents=%d b_op=%d seed=%llu\n"
        "rbar=%.4f HR@3=%.4f victim_loss=%.4f\n%s\n",
        result.method.c_str(), budget, opponents, opponent_budget,
        static_cast<unsigned long long>(seed), result.average_rating,
        result.hit_rate_at_3, result.victim_final_loss,
        result.attacker_plan.Summary().c_str());
  }
  return 0;
}
