// EXTENSION (beyond the paper's measured experiments): platform
// moderation. §VI-F of the paper argues that poisoning through *real*
// users is more durable because "website moderators usually detect and
// remove fake user accounts". This bench quantifies that claim with the
// behavioural fake-account detector in src/defense/: after each attack
// lands (and the opponent reacts), the platform flags and removes the
// most suspicious accounts, the victim is retrained on the moderated
// data, and we measure how much of the attack survives.
//
// Expected shape: injection attacks (all poison mass on fake profiles)
// lose most of their uplift; MSOPDS — whose plan leans on hired real
// users and graph links — retains far more.

#include "bench/bench_util.h"
#include "core/bopds.h"
#include "defense/fake_detector.h"
#include "recsys/metrics.h"
#include "recsys/trainer.h"

namespace msopds {
namespace {

struct ModeratedResult {
  double rbar_before = 0.0;
  double rbar_after = 0.0;
};

ModeratedResult RunModeratedGame(const Dataset& base,
                                 const GameConfig& game_config,
                                 const std::string& method, int budget_level,
                                 uint64_t seed) {
  Rng rng(seed);
  GameContext context;
  context.base = &base;
  context.demos = SampleDemographics(base, 1 + game_config.num_opponents,
                                     &rng);
  context.config = game_config;
  context.attacker_budget = AttackBudget::FromLevel(budget_level, base);

  Dataset world = base;
  auto attack = MakeAttackFactory(method)(context);
  Rng attacker_rng = rng.Split();
  attack->Execute(&world, context.demos[0], context.attacker_budget,
                  &attacker_rng);
  for (int q = 0; q < game_config.num_opponents; ++q) {
    BopdsConfig opponent_config;
    opponent_config.pds = game_config.opponent_pds;
    opponent_config.step = game_config.opponent_step;
    opponent_config.iterations = game_config.opponent_iterations;
    opponent_config.comprehensive = false;
    opponent_config.demote = true;
    opponent_config.preset_rating = kMinRating;
    Bopds opponent(opponent_config);
    AttackBudget opponent_budget = AttackBudget::FromLevel(
        game_config.opponent_budget_level, world);
    opponent_budget.promote_rating = kMinRating;
    Rng opponent_rng = rng.Split();
    opponent.Execute(&world, context.demos[static_cast<size_t>(q + 1)],
                     opponent_budget, &opponent_rng);
  }

  const Demographics& market = context.demos[0];
  ModeratedResult result;
  {
    Rng victim_rng(seed + 1000);
    HetRecSys victim(world, game_config.victim, &victim_rng);
    TrainModel(&victim, world.ratings, game_config.victim_training);
    result.rbar_before = AverageTargetRating(&victim, market.target_audience,
                                             market.target_item);
  }

  // Moderation: flag as many accounts as the attacker injected fakes
  // (a budget-matched moderator), remove them, retrain.
  const int64_t flag_count = context.attacker_budget.num_fake_users;
  const std::vector<int64_t> flagged = DetectFakeUsers(world, flag_count);
  std::vector<int64_t> id_map;
  const Dataset moderated = RemoveUsers(world, flagged, &id_map);

  // Audience ids after compaction (members are real and typically kept).
  std::vector<int64_t> audience;
  for (int64_t user : market.target_audience) {
    const int64_t mapped = id_map[static_cast<size_t>(user)];
    if (mapped >= 0) audience.push_back(mapped);
  }
  if (audience.empty()) {
    result.rbar_after = result.rbar_before;
    return result;
  }
  Rng victim_rng(seed + 2000);
  HetRecSys victim(moderated, game_config.victim, &victim_rng);
  TrainModel(&victim, moderated.ratings, game_config.victim_training);
  result.rbar_after =
      AverageTargetRating(&victim, audience, market.target_item);
  return result;
}

int Main(int argc, char** argv) {
  // This bench plays one fixed budget in this process, so it declares
  // only the game flags: the sweep, budget, opponent and fault-drill
  // flags would be ignored, and are unknown instead.
  BenchFlags flags;
  flags.repeats = 2;
  flags.datasets = {"epinions"};
  flags.methods = {"Random", "RevAdv", "Trial", "MSOPDS-real", "MSOPDS"};
  FlagSet flag_set(argv[0]);
  flags.DeclareGameFlags(&flag_set);
  const Status parsed = flag_set.Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed);
  const Status names = CheckExperimentNames(flags.datasets, flags.methods);
  if (!names.ok()) return UsageError(names);
  if (flags.threads > 0) ThreadPool::Global().SetNumThreads(flags.threads);
  const int budget = 5;

  std::printf(
      "=== Extension: moderation survival (one opponent, budget-matched "
      "fake-account takedowns), scale %.2f ===\n",
      flags.scale);

  for (const std::string& dataset_name : flags.datasets) {
    const Dataset base =
        MakeExperimentDataset(dataset_name, flags.scale, flags.seed);
    std::printf("\n[%s] %s\n", dataset_name.c_str(), base.Summary().c_str());
    std::printf("%-14s %10s %10s %10s\n", "method", "rbar", "moderated",
                "retained");
    const GameConfig game_config = DefaultGameConfig();
    for (const std::string& method : flags.methods) {
      double before = 0.0, after = 0.0;
      for (int r = 0; r < flags.repeats; ++r) {
        const ModeratedResult result = RunModeratedGame(
            base, game_config, method, budget,
            flags.seed + 1 + static_cast<uint64_t>(r));
        before += result.rbar_before;
        after += result.rbar_after;
      }
      before /= flags.repeats;
      after /= flags.repeats;
      std::printf("%-14s %10.4f %10.4f %9.1f%%\n", method.c_str(), before,
                  after, before > 0 ? 100.0 * after / before : 0.0);
    }
  }
  std::printf(
      "\nExpected shape (paper §VI-F discussion): real-user channels\n"
      "retain more of their uplift under fake-account takedowns than\n"
      "pure injection attacks.\n");
  return 0;
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
