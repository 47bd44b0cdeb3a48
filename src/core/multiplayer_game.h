#ifndef MSOPDS_CORE_MULTIPLAYER_GAME_H_
#define MSOPDS_CORE_MULTIPLAYER_GAME_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack.h"
#include "core/pds_surrogate.h"
#include "recsys/het_recsys.h"
#include "recsys/trainer.h"

namespace msopds {

/// Configuration of one multiplayer poisoning game (the paper's §VI-B
/// evaluation protocol).
struct GameConfig {
  HetRecSysConfig victim;
  TrainOptions victim_training;
  /// Number of subsequent opponents (N of Definition 5).
  int num_opponents = 1;
  /// Opponents' budget level b_op (paper default 2).
  int opponent_budget_level = 2;
  /// Opponents' BOPDS planning hyperparameters.
  PdsConfig opponent_pds;
  double opponent_step = 0.05;
  int opponent_iterations = 8;
};

/// Everything an attack factory may need to construct the attacker's
/// strategy: the base data, the sampled demographics (index 0 = attacker,
/// 1.. = opponents), and the budgets in play. MSOPDS uses the opponent
/// demographics as its anticipation input; IA baselines ignore them.
struct GameContext {
  const Dataset* base = nullptr;
  std::vector<Demographics> demos;
  GameConfig config;
  AttackBudget attacker_budget;
};

/// Builds the attacker's strategy for one game instance.
using AttackFactory =
    std::function<std::unique_ptr<Attack>(const GameContext&)>;

/// Outcome of one full game.
struct GameResult {
  std::string method;
  /// Paper metrics for the attacker's target item on the trained victim.
  double average_rating = 0.0;
  double hit_rate_at_3 = 0.0;
  /// Victim training diagnostics.
  double victim_final_loss = 0.0;
  /// What the attacker injected.
  PoisonPlan attacker_plan;
  /// Total ratings opponents injected.
  int64_t opponent_ratings = 0;

  // --- Resilience diagnostics ---
  /// False when the victim's training exhausted its numerical-health
  /// retry budget or the measured metrics came out non-finite; `failure`
  /// then says why. Metrics of an unhealthy game must not enter means.
  bool healthy = true;
  /// Victim-training epochs rolled back and retried.
  int victim_retries = 0;
  std::string failure;
};

/// The poisoning half of one game (MultiplayerGame::Poison): the base
/// data with the attacker's and every opponent's poison, the game's
/// context, and the game's random stream where the victim's stream
/// splits off next.
struct PoisonedWorld {
  Dataset data;
  GameContext context;
  /// `method`, `attacker_plan` and `opponent_ratings` filled in.
  GameResult result;
  Rng rng;
};

/// Runs the paper's evaluation protocol: the attacker poisons first given
/// the clean data; each opponent then plans a (simplified, rating-only
/// demotion) Comprehensive Attack by BOPDS given everything injected so
/// far; finally the victim Het-RecSys is trained on the fully poisoned
/// records and the attacker's metrics are measured (§VI-B).
class MultiplayerGame {
 public:
  MultiplayerGame(const Dataset& base, GameConfig config);

  /// One game with the given attacker strategy, budget level b and seed.
  /// Deterministic given (factory behaviour, b, seed).
  GameResult Run(const AttackFactory& attacker_factory, int budget_level,
                 uint64_t seed) const;

  /// The poisoning half of Run, with the same draws: the attacker
  /// poisons, then each opponent reacts. Run trains the victim on the
  /// result and measures it.
  PoisonedWorld Poison(const AttackFactory& attacker_factory,
                       int budget_level, uint64_t seed) const;

  const Dataset& base() const { return base_; }
  const GameConfig& config() const { return config_; }

 private:
  Dataset base_;
  GameConfig config_;
};

}  // namespace msopds

#endif  // MSOPDS_CORE_MULTIPLAYER_GAME_H_
