#include "core/experiment.h"

#include "attack/baselines.h"
#include "attack/pga_attack.h"
#include "attack/poisonrec_attack.h"
#include "attack/revadv_attack.h"
#include "attack/sattack.h"
#include "attack/trial_attack.h"
#include "core/bopds.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace msopds {
namespace {

std::vector<OpponentSpec> AnticipatedOpponents(const GameContext& context) {
  std::vector<OpponentSpec> specs;
  for (size_t q = 1; q < context.demos.size(); ++q) {
    OpponentSpec spec;
    spec.demo = context.demos[q];
    spec.budget_level = context.config.opponent_budget_level;
    spec.preset_rating = kMinRating;
    specs.push_back(std::move(spec));
  }
  return specs;
}

AttackFactory MsopdsFactory(bool ratings, bool social, bool item, bool fakes,
                            std::string variant) {
  return [=](const GameContext& context) -> std::unique_ptr<Attack> {
    MsopdsConfig config = DefaultMsopdsConfig();
    config.include_rating_actions = ratings;
    config.include_social_actions = social;
    config.include_item_actions = item;
    config.inject_fake_accounts = fakes;
    config.variant_name = variant;
    return std::make_unique<Msopds>(config, AnticipatedOpponents(context));
  };
}

}  // namespace

std::vector<std::string> StandardMethods() {
  return {"None",   "Random", "Popular", "PGA",
          "S-attack", "RevAdv", "Trial",   "MSOPDS"};
}

std::vector<std::string> Fig8Methods() {
  return {"MSOPDS-ratings", "MSOPDS-ratings+item", "MSOPDS-ratings+user",
          "MSOPDS"};
}

std::vector<std::string> Fig9Methods() {
  return {"MSOPDS-real", "MSOPDS-fake", "MSOPDS-ratings+user"};
}

MsopdsConfig DefaultMsopdsConfig() {
  MsopdsConfig config;
  config.pds.embedding_dim = 8;
  config.pds.inner_steps = 5;
  config.pds.inner_learning_rate = 0.5;
  config.mso.leader_step = 0.005;
  config.mso.follower_step = 0.05;
  config.mso.outer_iterations = 20;
  return config;
}

AttackFactory MakeAttackFactory(const std::string& method) {
  if (method == "None") {
    return [](const GameContext&) { return std::make_unique<NoneAttack>(); };
  }
  if (method == "Random") {
    return [](const GameContext&) { return std::make_unique<RandomAttack>(); };
  }
  if (method == "Popular") {
    return
        [](const GameContext&) { return std::make_unique<PopularAttack>(); };
  }
  if (method == "PGA") {
    return [](const GameContext&) { return std::make_unique<PgaAttack>(); };
  }
  if (method == "S-attack") {
    return [](const GameContext&) { return std::make_unique<SAttack>(); };
  }
  if (method == "RevAdv") {
    return [](const GameContext&) { return std::make_unique<RevAdvAttack>(); };
  }
  if (method == "Trial") {
    return [](const GameContext&) { return std::make_unique<TrialAttack>(); };
  }
  if (method == "PoisonRec") {
    return [](const GameContext&) {
      return std::make_unique<PoisonRecAttack>();
    };
  }
  if (method == "BOPDS") {
    return [](const GameContext&) -> std::unique_ptr<Attack> {
      BopdsConfig config;
      config.comprehensive = true;
      config.demote = false;
      config.variant_name = "BOPDS";
      return std::make_unique<Bopds>(config);
    };
  }
  if (method == "MSOPDS") {
    return MsopdsFactory(true, true, true, true, "MSOPDS");
  }
  if (method == "MSOPDS-ratings") {
    return MsopdsFactory(true, false, false, true, "MSOPDS-ratings");
  }
  if (method == "MSOPDS-ratings+item") {
    return MsopdsFactory(true, false, true, true, "MSOPDS-ratings+item");
  }
  if (method == "MSOPDS-ratings+user") {
    return MsopdsFactory(true, true, false, true, "MSOPDS-ratings+user");
  }
  if (method == "MSOPDS-real") {
    return MsopdsFactory(true, true, false, false, "MSOPDS-real");
  }
  if (method == "MSOPDS-fake") {
    return MsopdsFactory(false, true, false, true, "MSOPDS-fake");
  }
  MSOPDS_LOG(Fatal) << "unknown attack method: " << method;
  return {};
}

Dataset MakeExperimentDataset(const std::string& name, double scale,
                              uint64_t seed) {
  SyntheticConfig config;
  if (name == "ciao") {
    config = CiaoProfile(scale);
  } else if (name == "epinions") {
    config = EpinionsProfile(scale);
  } else if (name == "librarything") {
    config = LibraryThingProfile(scale);
  } else {
    MSOPDS_LOG(Fatal) << "unknown dataset profile: " << name;
  }
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

GameConfig DefaultGameConfig() {
  GameConfig config;
  config.victim.embedding_dim = 16;
  config.victim_training.epochs = 40;
  config.victim_training.learning_rate = 0.05;
  config.num_opponents = 1;
  config.opponent_budget_level = 2;
  config.opponent_pds.embedding_dim = 8;
  config.opponent_pds.inner_steps = 4;
  config.opponent_step = 0.05;
  config.opponent_iterations = 8;
  return config;
}

CellStats RunRepeatedCell(const MultiplayerGame& game,
                          const std::string& method, int budget_level,
                          uint64_t seed, int repeats) {
  return RunRepeatedCellChecked(game, method, budget_level, seed, repeats)
      .stats;
}

CellOutcome RunRepeatedCellChecked(const MultiplayerGame& game,
                                   const std::string& method,
                                   int budget_level, uint64_t seed,
                                   int repeats) {
  MSOPDS_CHECK_GT(repeats, 0);
  const AttackFactory factory = MakeAttackFactory(method);
  CellOutcome outcome;
  for (int r = 0; r < repeats; ++r) {
    const GameResult result =
        game.Run(factory, budget_level, seed + static_cast<uint64_t>(r));
    if (!result.healthy) {
      ++outcome.unhealthy_repeats;
      outcome.error = result.failure;
      MSOPDS_LOG(Warning) << method << " b=" << budget_level << " repeat " << r
                          << " unhealthy, excluded from mean: "
                          << result.failure;
      continue;
    }
    outcome.stats.mean_average_rating += result.average_rating;
    outcome.stats.mean_hit_rate += result.hit_rate_at_3;
    ++outcome.stats.repeats;
  }
  if (outcome.stats.repeats == 0) {
    outcome.ok = false;
    outcome.stats.mean_average_rating = 0.0;
    outcome.stats.mean_hit_rate = 0.0;
    if (outcome.error.empty()) outcome.error = "no healthy repeats";
    return outcome;
  }
  outcome.stats.mean_average_rating /= outcome.stats.repeats;
  outcome.stats.mean_hit_rate /= outcome.stats.repeats;
  return outcome;
}

std::string GameResultToJson(const GameResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("method").String(result.method);
  json.Key("average_rating").Double(result.average_rating);
  json.Key("hit_rate_at_3").Double(result.hit_rate_at_3);
  json.Key("victim_final_loss").Double(result.victim_final_loss);
  json.Key("opponent_ratings").Int(result.opponent_ratings);
  json.Key("healthy").Bool(result.healthy);
  json.Key("victim_retries").Int(result.victim_retries);
  if (!result.failure.empty()) json.Key("failure").String(result.failure);
  json.Key("attacker_plan").BeginObject();
  json.Key("ratings").Int(result.attacker_plan.CountType(ActionType::kRating));
  json.Key("social_edges")
      .Int(result.attacker_plan.CountType(ActionType::kSocialEdge));
  json.Key("item_edges")
      .Int(result.attacker_plan.CountType(ActionType::kItemEdge));
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

}  // namespace msopds
