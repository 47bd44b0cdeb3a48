#include <gtest/gtest.h>

#include "core/bopds.h"
#include "core/experiment.h"
#include "core/msopds.h"
#include "core/multiplayer_game.h"
#include "game_fixtures.h"

namespace msopds {
namespace {

TEST(BopdsTest, PlanRespectsBudgetAndApplies) {
  Dataset world = TestWorld();
  Rng rng(1);
  Demographics demo = SampleDemographics(world, 1, &rng)[0];
  BopdsConfig config;
  config.pds.embedding_dim = 4;
  config.pds.inner_steps = 2;
  config.iterations = 3;
  Bopds attack(config);
  const AttackBudget budget = AttackBudget::FromLevel(2, world);
  const int64_t users_before = world.num_users;
  const PoisonPlan plan = attack.Execute(&world, demo, budget, &rng);
  EXPECT_TRUE(world.Validate().ok());
  EXPECT_EQ(world.num_users, users_before + budget.num_fake_users);
  EXPECT_LE(plan.CountType(ActionType::kRating),
            budget.hired_raters + budget.num_fake_users);
  EXPECT_LE(plan.CountType(ActionType::kSocialEdge), budget.social_links);
  EXPECT_LE(plan.CountType(ActionType::kItemEdge), budget.item_links);
  EXPECT_EQ(attack.last_losses().size(), 3u);
}

TEST(BopdsTest, RatingOnlyOpponentDemotes) {
  Dataset world = TestWorld();
  Rng rng(2);
  Demographics demo = SampleDemographics(world, 1, &rng)[0];
  BopdsConfig config;
  config.pds.embedding_dim = 4;
  config.pds.inner_steps = 2;
  config.iterations = 3;
  config.comprehensive = false;
  config.demote = true;
  config.preset_rating = kMinRating;
  Bopds attack(config);
  AttackBudget budget = AttackBudget::FromLevel(2, world);
  const int64_t users_before = world.num_users;
  const PoisonPlan plan = attack.Execute(&world, demo, budget, &rng);
  // No fake accounts, only 1-star hired ratings on the target.
  EXPECT_EQ(world.num_users, users_before);
  for (const PoisonAction& action : plan.actions) {
    EXPECT_EQ(action.type, ActionType::kRating);
    EXPECT_EQ(action.b, demo.target_item);
    EXPECT_DOUBLE_EQ(action.rating, kMinRating);
  }
  EXPECT_LE(static_cast<int64_t>(plan.actions.size()), budget.hired_raters);
}

TEST(MsopdsTest, ExecuteProducesValidBudgetedPlan) {
  Dataset world = TestWorld();
  Rng rng(3);
  const auto demos = SampleDemographics(world, 2, &rng);
  OpponentSpec spec;
  spec.demo = demos[1];
  spec.budget_level = 2;
  Msopds attack(FastMsopdsConfig(), {spec});
  const AttackBudget budget = AttackBudget::FromLevel(3, world);
  const int64_t users_before = world.num_users;
  const PoisonPlan plan = attack.Execute(&world, demos[0], budget, &rng);
  EXPECT_TRUE(world.Validate().ok());
  EXPECT_EQ(world.num_users, users_before + budget.num_fake_users);
  // Planned actions stay within budget (plus the unconditional fake
  // target ratings).
  EXPECT_LE(plan.CountType(ActionType::kRating),
            budget.hired_raters + budget.num_fake_users);
  EXPECT_LE(plan.CountType(ActionType::kSocialEdge), budget.social_links);
  EXPECT_LE(plan.CountType(ActionType::kItemEdge), budget.item_links);
  EXPECT_GT(plan.CountType(ActionType::kItemEdge), 0);
  EXPECT_EQ(attack.last_history().size(), 4u);
}

TEST(MsopdsTest, AblationFlagsRestrictActionTypes) {
  Dataset world = TestWorld();
  Rng rng(4);
  const auto demos = SampleDemographics(world, 2, &rng);
  OpponentSpec spec;
  spec.demo = demos[1];
  MsopdsConfig config = FastMsopdsConfig();
  config.include_social_actions = false;
  config.include_item_actions = false;
  Msopds attack(config, {spec});
  Dataset copy = world;
  const PoisonPlan plan =
      attack.Execute(&copy, demos[0], AttackBudget::FromLevel(2, world), &rng);
  EXPECT_EQ(plan.CountType(ActionType::kSocialEdge), 0);
  EXPECT_EQ(plan.CountType(ActionType::kItemEdge), 0);
  EXPECT_GT(plan.CountType(ActionType::kRating), 0);
}

TEST(MsopdsTest, RealOnlyVariantInjectsNoFakes) {
  Dataset world = TestWorld();
  Rng rng(5);
  const auto demos = SampleDemographics(world, 2, &rng);
  OpponentSpec spec;
  spec.demo = demos[1];
  MsopdsConfig config = FastMsopdsConfig();
  config.inject_fake_accounts = false;
  config.include_item_actions = false;
  config.include_social_actions = false;
  Msopds attack(config, {spec});
  Dataset copy = world;
  const int64_t users_before = copy.num_users;
  attack.Execute(&copy, demos[0], AttackBudget::FromLevel(2, world), &rng);
  EXPECT_EQ(copy.num_users, users_before);
}

TEST(GameTest, DeterministicGivenSeed) {
  const Dataset base = TestWorld();
  MultiplayerGame game(base, FastGameConfig());
  const AttackFactory factory = MakeAttackFactory("Random");
  const GameResult a = game.Run(factory, 2, 99);
  const GameResult b = game.Run(factory, 2, 99);
  EXPECT_DOUBLE_EQ(a.average_rating, b.average_rating);
  EXPECT_DOUBLE_EQ(a.hit_rate_at_3, b.hit_rate_at_3);
}

TEST(GameTest, OpponentsInjectDemotionRatings) {
  const Dataset base = TestWorld();
  GameConfig config = FastGameConfig();
  config.num_opponents = 2;
  MultiplayerGame game(base, config);
  const GameResult result = game.Run(MakeAttackFactory("None"), 2, 7);
  EXPECT_GT(result.opponent_ratings, 0);
}

TEST(GameTest, MetricsWithinValidRanges) {
  const Dataset base = TestWorld();
  MultiplayerGame game(base, FastGameConfig());
  for (const char* method : {"None", "Random", "MSOPDS"}) {
    GameResult result = game.Run(MakeAttackFactory(method), 2, 11);
    EXPECT_GE(result.average_rating, kMinRating) << method;
    EXPECT_LE(result.average_rating, kMaxRating) << method;
    EXPECT_GE(result.hit_rate_at_3, 0.0) << method;
    EXPECT_LE(result.hit_rate_at_3, 1.0) << method;
    EXPECT_EQ(result.method, method);
  }
}

TEST(ExperimentTest, RegistryCoversAllMethods) {
  for (const auto& method : StandardMethods()) {
    EXPECT_NE(MakeAttackFactory(method), nullptr) << method;
  }
  for (const auto& method : Fig8Methods()) {
    EXPECT_NE(MakeAttackFactory(method), nullptr) << method;
  }
  for (const auto& method : Fig9Methods()) {
    EXPECT_NE(MakeAttackFactory(method), nullptr) << method;
  }
}

TEST(ExperimentTest, MakeExperimentDatasetProfiles) {
  const Dataset d = MakeExperimentDataset("ciao", 0.05, 3);
  EXPECT_EQ(d.name, "ciao");
  EXPECT_TRUE(d.Validate().ok());
}

TEST(ExperimentTest, GameResultJsonIsWellFormed) {
  const Dataset base = TestWorld();
  MultiplayerGame game(base, FastGameConfig());
  const GameResult result = game.Run(MakeAttackFactory("Random"), 2, 3);
  const std::string json = GameResultToJson(result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"method\":\"Random\""), std::string::npos);
  EXPECT_NE(json.find("\"average_rating\":"), std::string::npos);
  EXPECT_NE(json.find("\"attacker_plan\":{"), std::string::npos);
}

TEST(ExperimentTest, RunRepeatedCellAverages) {
  const Dataset base = TestWorld();
  MultiplayerGame game(base, FastGameConfig());
  const CellStats stats = RunRepeatedCell(game, "Random", 2, 5, 2);
  EXPECT_EQ(stats.repeats, 2);
  EXPECT_GE(stats.mean_average_rating, kMinRating);
  EXPECT_LE(stats.mean_average_rating, kMaxRating);
}

}  // namespace
}  // namespace msopds
