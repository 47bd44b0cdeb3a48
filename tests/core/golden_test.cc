// Golden gate: tiny multiplayer games whose paper metrics (rbar, HR@3)
// and victim training loss are pinned bit for bit as hex-float literals,
// plus the fake rating values the unrolled-MF attack (the PGA/RevAdv
// surrogate) returns on a tiny world, all at 1 and 4 kernel threads. The
// games cover MSOPDS against one BOPDS opponent and every attack that
// fits an MF surrogate first (PGA, RevAdv, Trial, PoisonRec). Trial and
// PoisonRec use their surrogate only to rank candidate profiles, so a
// small change to the surrogate fit can leave their games unchanged.
// `ctest -L golden` runs only this.
//
// A change that moves any value here changed a result. If the move is
// intended, print the new values (the failure message carries them in
// %a form), update the literals, and say why in the change log.

#include <cstdio>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attack/poison_plan.h"
#include "attack/unrolled_surrogate.h"
#include "core/experiment.h"
#include "core/msopds.h"
#include "core/multiplayer_game.h"
#include "data/demographics.h"
#include "data/synthetic.h"
#include "game_fixtures.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

// MSOPDS with the fast planner, anticipating every opponent of the game.
AttackFactory FastMsopdsFactory() {
  return [](const GameContext& context) -> std::unique_ptr<Attack> {
    std::vector<OpponentSpec> opponents;
    for (size_t q = 1; q < context.demos.size(); ++q) {
      OpponentSpec spec;
      spec.demo = context.demos[q];
      spec.budget_level = context.config.opponent_budget_level;
      opponents.push_back(spec);
    }
    return std::make_unique<Msopds>(FastMsopdsConfig(), opponents);
  };
}

struct GoldenGame {
  std::string name;
  /// MakeAttackFactory method; empty plays the fast MSOPDS planner.
  std::string method;
  double average_rating;
  double hit_rate_at_3;
  double victim_final_loss;
};

void PrintTo(const GoldenGame& golden, std::ostream* os) {
  *os << golden.name;
}

GameResult PlayGame(const GoldenGame& golden) {
  const AttackFactory attacker = golden.method.empty()
                                     ? FastMsopdsFactory()
                                     : MakeAttackFactory(golden.method);
  const MultiplayerGame game(TestWorld(), FastGameConfig());
  return game.Run(attacker, /*budget_level=*/4, /*seed=*/2);
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

class GoldenTest
    : public ::testing::TestWithParam<std::tuple<GoldenGame, int>> {};

TEST_P(GoldenTest, GameMetricsAreBitExact) {
  const GoldenGame& golden = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  ThreadPool::Global().SetNumThreads(threads);
  const GameResult result = PlayGame(golden);
  ThreadPool::Global().SetNumThreads(1);

  ASSERT_TRUE(result.healthy) << result.failure;
  EXPECT_EQ(Hex(result.average_rating), Hex(golden.average_rating))
      << "rbar";
  EXPECT_EQ(Hex(result.hit_rate_at_3), Hex(golden.hit_rate_at_3)) << "HR@3";
  EXPECT_EQ(Hex(result.victim_final_loss), Hex(golden.victim_final_loss))
      << "victim_final_loss";
}

const GoldenGame kGoldenGames[] = {
    {"msopds_vs_bopds", "", 0x1.0c0dc14e31c74p+2, 0x1.5555555555555p-2,
     0x1.278926e7cc286p-1},
    {"revadv", "RevAdv", 0x1.b6afb7cd140fbp+1, 0x1.5555555555555p-2,
     0x1.00f447886e4a4p-1},
    {"pga", "PGA", 0x1.b464c99fd7098p+1, 0x0p+0, 0x1.f115b16f0403cp-2},
    {"trial", "Trial", 0x1.bba32ff2c2fa1p+1, 0x0p+0, 0x1.f6ae03db114d5p-2},
    {"poisonrec", "PoisonRec", 0x1.a73888229395p+1, 0x0p+0,
     0x1.015664184b88ap-1},
};

INSTANTIATE_TEST_SUITE_P(
    TinyGames, GoldenTest,
    ::testing::Combine(::testing::ValuesIn(kGoldenGames),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<GoldenTest::ParamType>& info) {
      return std::get<0>(info.param).name + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

// OptimizeFakeRatings on a 30-user world: two fake users rate the
// non-target items among the first six, and the returned values are
// differentiated through a 4-step recorded MF unroll.
Tensor UnrolledMfFakeRatings() {
  SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 40;
  config.num_ratings = 300;
  config.num_social_links = 90;
  Rng world_rng(15);
  Dataset world = GenerateSynthetic(config, &world_rng);
  const Demographics demo = SampleDemographics(world, 1, &world_rng)[0];
  const int64_t real_users = world.num_users;
  const std::vector<int64_t> fakes = AddFakeUsers(&world, 2);
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t fake : fakes) {
    for (int64_t item = 0; item < 6; ++item) {
      if (item != demo.target_item) pairs.emplace_back(fake, item);
    }
  }
  Tensor init({static_cast<int64_t>(pairs.size())});
  init.Fill(3.0);

  UnrolledMfOptions options;
  options.pretrain_epochs = 5;
  options.unroll_steps = 4;
  options.outer_iterations = 2;
  Rng rng(31);
  return OptimizeFakeRatings(world, demo, pairs, init, real_users, options,
                             &rng);
}

const double kGoldenFakeRatings[] = {
    0x1.7fff8041c2e33p+1, 0x1.7fff7afbb8d7ap+1, 0x1.7fffcdd3b7b61p+1,
    0x1.7fffb2953aa72p+1, 0x1.7fffb57ffee07p+1, 0x1.7fff7f5776fcep+1,
    0x1.7fff7718440d9p+1, 0x1.7fffce7fa8537p+1, 0x1.7fffaeabdb035p+1,
    0x1.7fffb79f358d7p+1,
};

class GoldenUnrolledMfTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenUnrolledMfTest, FakeRatingsAreBitExact) {
  ThreadPool::Global().SetNumThreads(GetParam());
  const Tensor values = UnrolledMfFakeRatings();
  ThreadPool::Global().SetNumThreads(1);

  ASSERT_EQ(values.size(),
            static_cast<int64_t>(std::size(kGoldenFakeRatings)));
  for (int64_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(Hex(values.at(i)), Hex(kGoldenFakeRatings[i])) << "value " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UnrolledMf, GoldenUnrolledMfTest, ::testing::Values(1, 4),
    [](const ::testing::TestParamInfo<int>& info) {
      return "threads" + std::to_string(info.param);
    });

}  // namespace
}  // namespace msopds
