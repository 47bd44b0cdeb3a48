// Golden gate: three tiny multiplayer games whose paper metrics (rbar,
// HR@3) and victim training loss are pinned bit for bit as hex-float
// literals, at 1 and 4 kernel threads. `ctest -L golden` runs only this.
//
// A change that moves any value here changed a result. If the move is
// intended, print the new values (the failure message carries them in
// %a form), update the literals, and say why in the change log.

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/msopds.h"
#include "core/multiplayer_game.h"
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
  double average_rating;
  double hit_rate_at_3;
  double victim_final_loss;
};

void PrintTo(const GoldenGame& golden, std::ostream* os) {
  *os << golden.name;
}

GameResult PlayGame(const std::string& name) {
  GameConfig config = FastGameConfig();
  AttackFactory attacker = FastMsopdsFactory();
  if (name == "msopds_checkpointed_opponent") {
    // The opponent plans through PdsSurrogate::CheckpointedGrad.
    config.opponent_pds.checkpoint_every = 2;
  } else if (name == "revadv") {
    attacker = MakeAttackFactory("RevAdv");
  }
  const MultiplayerGame game(TestWorld(), config);
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
  const GameResult result = PlayGame(golden.name);
  ThreadPool::Global().SetNumThreads(1);

  ASSERT_TRUE(result.healthy) << result.failure;
  EXPECT_EQ(Hex(result.average_rating), Hex(golden.average_rating))
      << "rbar";
  EXPECT_EQ(Hex(result.hit_rate_at_3), Hex(golden.hit_rate_at_3)) << "HR@3";
  EXPECT_EQ(Hex(result.victim_final_loss), Hex(golden.victim_final_loss))
      << "victim_final_loss";
}

const GoldenGame kGoldenGames[] = {
    {"msopds_vs_bopds", 0x1.0c0dc14e31c74p+2, 0x1.5555555555555p-2,
     0x1.278926e7cc286p-1},
    // The same game: a checkpointed opponent must plan bit-identically.
    {"msopds_checkpointed_opponent", 0x1.0c0dc14e31c74p+2,
     0x1.5555555555555p-2, 0x1.278926e7cc286p-1},
    {"revadv", 0x1.b6afb7cd140fbp+1, 0x1.5555555555555p-2,
     0x1.00f447886e4a4p-1},
};

INSTANTIATE_TEST_SUITE_P(
    TinyGames, GoldenTest,
    ::testing::Combine(::testing::ValuesIn(kGoldenGames),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<GoldenTest::ParamType>& info) {
      return std::get<0>(info.param).name + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace msopds
