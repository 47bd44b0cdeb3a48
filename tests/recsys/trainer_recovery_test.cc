#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/trainer.h"
#include "util/fault.h"
#include "util/health.h"

namespace msopds {
namespace {

Dataset SmallWorld(uint64_t seed = 21) {
  SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 50;
  config.num_ratings = 400;
  config.num_social_links = 120;
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

bool ParamsAllFinite(RatingModel* model) {
  for (const Variable& param : *model->MutableParams()) {
    if (!AllFinite(param.value())) return false;
  }
  return true;
}

TEST(TrainerRecoveryTest, GuardIsANoOpOnHealthyRuns) {
  const Dataset world = SmallWorld();
  TrainOptions guarded;
  guarded.epochs = 12;
  TrainOptions unguarded = guarded;
  unguarded.guard_numerics = false;

  Rng rng_a(5);
  HetRecSys model_a(world, HetRecSysConfig{}, &rng_a);
  const TrainResult result_a = TrainModel(&model_a, world.ratings, guarded);

  Rng rng_b(5);
  HetRecSys model_b(world, HetRecSysConfig{}, &rng_b);
  const TrainResult result_b = TrainModel(&model_b, world.ratings, unguarded);

  // Bit-identical: with no faults the guard must not change one update.
  ASSERT_EQ(result_a.loss_history.size(), result_b.loss_history.size());
  for (size_t i = 0; i < result_a.loss_history.size(); ++i) {
    EXPECT_EQ(result_a.loss_history[i], result_b.loss_history[i]);
  }
  EXPECT_EQ(result_a.final_loss, result_b.final_loss);
  EXPECT_TRUE(result_a.healthy);
  EXPECT_EQ(result_a.retries, 0);
  EXPECT_EQ(result_a.fault_events, 0);
}

TEST(TrainerRecoveryTest, PersistentFaultExhaustsRetriesButStaysFinite) {
  const Dataset world = SmallWorld();
  FaultConfig faults;
  faults.trainer_nan_probability = 1.0;  // every epoch is corrupted
  ScopedFaultInjection scope(faults);

  Rng rng(6);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  TrainOptions options;
  options.epochs = 10;
  options.max_retries = 3;
  const TrainResult result = TrainModel(&model, world.ratings, options);

  EXPECT_FALSE(result.healthy);
  EXPECT_EQ(result.retries, 3);
  EXPECT_EQ(result.fault_events, 4);  // 3 retried epochs + the terminal one
  EXPECT_FALSE(result.failure.empty());
  // The rollback kept every injected NaN out of the parameters.
  EXPECT_TRUE(ParamsAllFinite(&model));
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST(TrainerRecoveryTest, OccasionalFaultsAreAbsorbedByRetries) {
  const Dataset world = SmallWorld();
  FaultConfig faults;
  faults.seed = 3;
  faults.trainer_nan_probability = 0.25;
  ScopedFaultInjection scope(faults);

  Rng rng(7);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  TrainOptions options;
  options.epochs = 20;
  options.max_retries = 100;  // ample budget: training must survive
  const TrainResult result = TrainModel(&model, world.ratings, options);

  EXPECT_TRUE(result.healthy) << result.failure;
  EXPECT_GT(result.retries, 0);
  EXPECT_EQ(result.loss_history.size(), 20u);
  EXPECT_TRUE(ParamsAllFinite(&model));
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST(TrainerRecoveryTest, DisabledGuardLetsNansThroughAndReportsThem) {
  const Dataset world = SmallWorld();
  FaultConfig faults;
  faults.trainer_nan_probability = 1.0;
  ScopedFaultInjection scope(faults);

  Rng rng(8);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  TrainOptions options;
  options.epochs = 3;
  options.guard_numerics = false;
  const TrainResult result = TrainModel(&model, world.ratings, options);

  // Without the guard the NaN reaches the parameters — the run must at
  // least be flagged unhealthy rather than returning a silent NaN model.
  EXPECT_FALSE(std::isfinite(result.final_loss));
  EXPECT_FALSE(result.healthy);
  EXPECT_FALSE(result.failure.empty());
}

}  // namespace
}  // namespace msopds
