// Golden gate: tiny multiplayer games whose paper metrics (rbar, HR@3)
// and victim training loss are pinned bit for bit as hex-float literals,
// plus the fake rating values the unrolled-MF attack (the PGA/RevAdv
// surrogate) returns on a tiny world, all at 1 and 4 kernel threads. The
// games cover MSOPDS against one BOPDS opponent and every attack that
// fits an MF surrogate first (PGA, RevAdv, Trial, PoisonRec). Trial and
// PoisonRec use their surrogate only to rank candidate profiles, so a
// small change to the surrogate fit can leave their games unchanged.
// The game metrics see only the binarized plans, so the planners' own
// traces are pinned as well: every MSO iteration's losses, gradient
// norms and CG count, and the BOPDS opponent's losses.
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
#include "core/bopds.h"
#include "core/experiment.h"
#include "core/msopds.h"
#include "core/multiplayer_game.h"
#include "data/demographics.h"
#include "data/synthetic.h"
#include "game_fixtures.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

// The opponents MSOPDS anticipates: every opponent of the game.
std::vector<OpponentSpec> AnticipatedOpponents(const GameContext& context) {
  std::vector<OpponentSpec> opponents;
  for (size_t q = 1; q < context.demos.size(); ++q) {
    OpponentSpec spec;
    spec.demo = context.demos[q];
    spec.budget_level = context.config.opponent_budget_level;
    opponents.push_back(spec);
  }
  return opponents;
}

// MSOPDS with the fast planner, anticipating every opponent of the game.
AttackFactory FastMsopdsFactory() {
  return [](const GameContext& context) -> std::unique_ptr<Attack> {
    return std::make_unique<Msopds>(FastMsopdsConfig(),
                                    AnticipatedOpponents(context));
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

// The first two steps of MultiplayerGame::Run on the golden world
// (budget 4, seed 2), keeping the planners' traces: MSOPDS with the fast
// planner at three inner steps plans first, then the game's rating-only
// BOPDS opponent plans against the poisoned world.
struct PlannerTraces {
  std::vector<MsoIterationStats> mso;
  std::vector<double> bopds_losses;
};

PlannerTraces PlayPlanners() {
  const Dataset base = TestWorld();
  const GameConfig config = FastGameConfig();
  Rng rng(2);
  GameContext context;
  context.base = &base;
  context.demos = SampleDemographics(base, 1 + config.num_opponents, &rng);
  context.config = config;

  MsopdsConfig msopds_config = FastMsopdsConfig();
  msopds_config.pds.inner_steps = 3;
  Msopds attacker(msopds_config, AnticipatedOpponents(context));
  Dataset world = base;
  Rng attacker_rng = rng.Split();
  attacker.Execute(&world, context.demos[0],
                   AttackBudget::FromLevel(/*level=*/4, base), &attacker_rng);

  BopdsConfig opponent_config;
  opponent_config.pds = config.opponent_pds;
  opponent_config.step = config.opponent_step;
  opponent_config.iterations = config.opponent_iterations;
  opponent_config.comprehensive = false;
  opponent_config.demote = true;
  opponent_config.preset_rating = kMinRating;
  Bopds opponent(opponent_config);
  AttackBudget opponent_budget =
      AttackBudget::FromLevel(config.opponent_budget_level, world);
  opponent_budget.promote_rating = kMinRating;
  Rng opponent_rng = rng.Split();
  opponent.Execute(&world, context.demos[1], opponent_budget, &opponent_rng);

  return {attacker.last_history(), opponent.last_losses()};
}

struct GoldenMsoIteration {
  double leader_loss;
  double follower_loss;
  double leader_grad_norm;
  double implicit_term_norm;
  int cg_iterations;
};

const GoldenMsoIteration kGoldenMsoIterations[] = {
    {-0x1.2eabec009053cp-3, -0x1.c3cd6b5f915c5p-3, 0x1.fe96487ba6bcap-4,
     0x1.2469aa4833b96p-8, 2},
    {-0x1.2ae3eb7784e0cp-2, -0x1.803bbe7b11d3cp-4, 0x1.f17a2998e037dp-4,
     0x1.0b1470f1cfcc1p-7, 2},
    {-0x1.31b886f1620c8p-2, -0x1.8d5b22c85a955p-4, 0x1.ff45f2d29754cp-4,
     0x1.122314a7b86f1p-7, 2},
    {-0x1.30d72ba650f19p-2, -0x1.915c34f1bd349p-4, 0x1.00044edce96eap-3,
     0x1.12d0920abbf17p-7, 2},
};

const double kGoldenBopdsLosses[] = {
    0x1.566ad905767p-5, 0x1.4d371cd35fb89p-5, 0x1.4d371cd35fb89p-5};

class GoldenPlannerTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenPlannerTest, PlannerTracesAreBitExact) {
  ThreadPool::Global().SetNumThreads(GetParam());
  const PlannerTraces traces = PlayPlanners();
  ThreadPool::Global().SetNumThreads(1);

  ASSERT_EQ(traces.mso.size(), std::size(kGoldenMsoIterations));
  for (size_t i = 0; i < traces.mso.size(); ++i) {
    const MsoIterationStats& got = traces.mso[i];
    const GoldenMsoIteration& want = kGoldenMsoIterations[i];
    ASSERT_EQ(got.follower_losses.size(), 1u) << "iteration " << i;
    EXPECT_EQ(Hex(got.leader_loss), Hex(want.leader_loss))
        << "leader_loss, iteration " << i;
    EXPECT_EQ(Hex(got.follower_losses[0]), Hex(want.follower_loss))
        << "follower_loss, iteration " << i;
    EXPECT_EQ(Hex(got.leader_grad_norm), Hex(want.leader_grad_norm))
        << "leader_grad_norm, iteration " << i;
    EXPECT_EQ(Hex(got.implicit_term_norm), Hex(want.implicit_term_norm))
        << "implicit_term_norm, iteration " << i;
    EXPECT_EQ(got.cg_iterations, want.cg_iterations)
        << "cg_iterations, iteration " << i;
  }
  ASSERT_EQ(traces.bopds_losses.size(), std::size(kGoldenBopdsLosses));
  for (size_t i = 0; i < traces.bopds_losses.size(); ++i) {
    EXPECT_EQ(Hex(traces.bopds_losses[i]), Hex(kGoldenBopdsLosses[i]))
        << "BOPDS loss " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MsopdsThenBopds, GoldenPlannerTest, ::testing::Values(1, 4),
    [](const ::testing::TestParamInfo<int>& info) {
      return "threads" + std::to_string(info.param);
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
