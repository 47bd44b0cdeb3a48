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
#include "defense/fake_detector.h"
#include "recsys/metrics.h"
#include "recsys/trainer.h"

namespace msopds {
namespace {

struct ModeratedResult {
  double rbar_before = 0.0;
  double rbar_after = 0.0;
};

// One game through the multiplayer protocol's poisoning half
// (MultiplayerGame::Poison), then the victim trained on the poisoned
// world and again on the moderated one, each from its own seed.
ModeratedResult RunModeratedGame(const MultiplayerGame& game,
                                 const std::string& method, int budget_level,
                                 uint64_t seed) {
  const PoisonedWorld poisoned =
      game.Poison(MakeAttackFactory(method), budget_level, seed);
  const Dataset& world = poisoned.data;
  const GameConfig& game_config = game.config();
  const Demographics& market = poisoned.context.demos[0];
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
  const int64_t flag_count = poisoned.context.attacker_budget.num_fake_users;
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
    const MultiplayerGame game(
        MakeExperimentDataset(dataset_name, flags.scale, flags.seed),
        DefaultGameConfig());
    std::printf("\n[%s] %s\n", dataset_name.c_str(),
                game.base().Summary().c_str());
    std::printf("%-14s %10s %10s %10s\n", "method", "rbar", "moderated",
                "retained");
    for (const std::string& method : flags.methods) {
      double before = 0.0, after = 0.0;
      for (int r = 0; r < flags.repeats; ++r) {
        const ModeratedResult result = RunModeratedGame(
            game, method, budget, flags.seed + 1 + static_cast<uint64_t>(r));
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
