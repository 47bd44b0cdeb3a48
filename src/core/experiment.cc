#include "core/experiment.h"

#include <utility>

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

template <typename T>
AttackFactory DefaultConstructed() {
  return [](const GameContext&) -> std::unique_ptr<Attack> {
    return std::make_unique<T>();
  };
}

AttackFactory BopdsFactory() {
  return [](const GameContext&) -> std::unique_ptr<Attack> {
    BopdsConfig config;
    config.comprehensive = true;
    config.demote = false;
    config.variant_name = "BOPDS";
    return std::make_unique<Bopds>(config);
  };
}

// The one list of attack method names, in documentation order.
const std::vector<std::pair<std::string, AttackFactory>>& AttackTable() {
  static const std::vector<std::pair<std::string, AttackFactory>> table = {
      {"None", DefaultConstructed<NoneAttack>()},
      {"Random", DefaultConstructed<RandomAttack>()},
      {"Popular", DefaultConstructed<PopularAttack>()},
      {"PGA", DefaultConstructed<PgaAttack>()},
      {"S-attack", DefaultConstructed<SAttack>()},
      {"RevAdv", DefaultConstructed<RevAdvAttack>()},
      {"Trial", DefaultConstructed<TrialAttack>()},
      {"PoisonRec", DefaultConstructed<PoisonRecAttack>()},
      {"BOPDS", BopdsFactory()},
      {"MSOPDS", MsopdsFactory(true, true, true, true, "MSOPDS")},
      {"MSOPDS-ratings",
       MsopdsFactory(true, false, false, true, "MSOPDS-ratings")},
      {"MSOPDS-ratings+item",
       MsopdsFactory(true, false, true, true, "MSOPDS-ratings+item")},
      {"MSOPDS-ratings+user",
       MsopdsFactory(true, true, false, true, "MSOPDS-ratings+user")},
      {"MSOPDS-real", MsopdsFactory(true, true, false, false, "MSOPDS-real")},
      {"MSOPDS-fake", MsopdsFactory(false, true, false, true, "MSOPDS-fake")},
  };
  return table;
}

// The one list of dataset profile names.
const std::vector<std::pair<std::string, SyntheticConfig (*)(double)>>&
ProfileTable() {
  static const std::vector<
      std::pair<std::string, SyntheticConfig (*)(double)>>
      table = {{"ciao", CiaoProfile},
               {"epinions", EpinionsProfile},
               {"librarything", LibraryThingProfile}};
  return table;
}

template <typename Table>
bool Contains(const Table& table, const std::string& name) {
  for (const auto& entry : table) {
    if (entry.first == name) return true;
  }
  return false;
}

// "unknown <kind> '<value>'; accepted: a, b, c".
template <typename Table>
std::string UnknownName(const char* kind, const std::string& value,
                        const Table& table) {
  std::string message =
      std::string("unknown ") + kind + " '" + value + "'; accepted:";
  for (size_t i = 0; i < table.size(); ++i) {
    message += (i == 0 ? " " : ", ") + table[i].first;
  }
  return message;
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
  for (const auto& [name, factory] : AttackTable()) {
    if (name == method) return factory;
  }
  MSOPDS_LOG(Fatal) << UnknownName("attack method", method, AttackTable());
  return {};
}

Dataset MakeExperimentDataset(const std::string& name, double scale,
                              uint64_t seed) {
  for (const auto& [profile_name, profile] : ProfileTable()) {
    if (profile_name != name) continue;
    Rng rng(seed);
    return GenerateSynthetic(profile(scale), &rng);
  }
  MSOPDS_LOG(Fatal) << UnknownName("dataset profile", name, ProfileTable());
  return {};
}

Status CheckExperimentNames(const std::vector<std::string>& datasets,
                            const std::vector<std::string>& methods) {
  for (const std::string& name : datasets) {
    if (!Contains(ProfileTable(), name)) {
      return Status::InvalidArgument(
          UnknownName("dataset profile", name, ProfileTable()));
    }
  }
  for (const std::string& method : methods) {
    if (!Contains(AttackTable(), method)) {
      return Status::InvalidArgument(
          UnknownName("attack method", method, AttackTable()));
    }
  }
  return Status::Ok();
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
