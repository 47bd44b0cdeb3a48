#include "core/multiplayer_game.h"

#include <cmath>

#include "core/bopds.h"
#include "recsys/metrics.h"
#include "util/logging.h"

namespace msopds {

MultiplayerGame::MultiplayerGame(const Dataset& base, GameConfig config)
    : base_(base), config_(std::move(config)) {
  const Status status = base_.Validate();
  MSOPDS_CHECK(status.ok()) << status.ToString();
  MSOPDS_CHECK_GE(config_.num_opponents, 0);
}

PoisonedWorld MultiplayerGame::Poison(const AttackFactory& attacker_factory,
                                      int budget_level, uint64_t seed) const {
  PoisonedWorld poisoned{base_, {}, {}, Rng(seed)};
  Rng& rng = poisoned.rng;
  GameContext& context = poisoned.context;
  context.base = &base_;
  context.demos =
      SampleDemographics(base_, 1 + config_.num_opponents, &rng);
  context.config = config_;
  context.attacker_budget = AttackBudget::FromLevel(budget_level, base_);

  std::unique_ptr<Attack> attacker = attacker_factory(context);
  MSOPDS_CHECK(attacker != nullptr);

  GameResult& result = poisoned.result;
  result.method = attacker->name();

  // 1) The attacker poisons first, seeing only the clean data.
  Dataset& world = poisoned.data;
  Rng attacker_rng = rng.Split();
  result.attacker_plan = attacker->Execute(
      &world, context.demos[0], context.attacker_budget, &attacker_rng);

  // 2) Each opponent reacts in sequence, seeing all prior poison.
  //    They demote the attacker's target with 1-star hired ratings
  //    planned by BOPDS (§VI-A4 / §VI-C).
  for (int q = 0; q < config_.num_opponents; ++q) {
    BopdsConfig opponent_config;
    opponent_config.pds = config_.opponent_pds;
    opponent_config.step = config_.opponent_step;
    opponent_config.iterations = config_.opponent_iterations;
    opponent_config.comprehensive = false;
    opponent_config.demote = true;
    opponent_config.preset_rating = kMinRating;
    opponent_config.variant_name = "BOPDS-opponent";
    Bopds opponent(opponent_config);

    AttackBudget opponent_budget =
        AttackBudget::FromLevel(config_.opponent_budget_level, world);
    opponent_budget.promote_rating = kMinRating;

    Rng opponent_rng = rng.Split();
    const PoisonPlan plan =
        opponent.Execute(&world, context.demos[static_cast<size_t>(q + 1)],
                         opponent_budget, &opponent_rng);
    result.opponent_ratings += plan.CountType(ActionType::kRating);
  }
  return poisoned;
}

GameResult MultiplayerGame::Run(const AttackFactory& attacker_factory,
                                int budget_level, uint64_t seed) const {
  PoisonedWorld poisoned = Poison(attacker_factory, budget_level, seed);
  const Dataset& world = poisoned.data;
  GameResult result = std::move(poisoned.result);

  // 3) Train the victim Het-RecSys on the fully-poisoned records.
  Rng victim_rng = poisoned.rng.Split();
  HetRecSys victim(world, config_.victim, &victim_rng);
  const TrainResult training =
      TrainModel(&victim, world.ratings, config_.victim_training);
  result.victim_final_loss = training.final_loss;
  result.victim_retries = training.retries;
  if (!training.healthy) {
    result.healthy = false;
    result.failure = "victim training: " + training.failure;
  }

  // 4) The attacker's metrics on his market.
  const Demographics& market = poisoned.context.demos[0];
  result.average_rating =
      AverageTargetRating(&victim, market.target_audience, market.target_item);
  result.hit_rate_at_3 = HitRateAtK(&victim, market.target_audience,
                                    market.target_item, market.compete_items,
                                    /*k=*/3);
  if (result.healthy && (!std::isfinite(result.average_rating) ||
                         !std::isfinite(result.hit_rate_at_3))) {
    result.healthy = false;
    result.failure = "non-finite attacker metrics";
  }
  return result;
}

}  // namespace msopds
