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
  TrainOptions options;
  options.epochs = 12;

  Rng rng(5);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  const TrainResult result = TrainModel(&model, world.ratings, options);

  // With no faults the guard never rolls an epoch back.
  EXPECT_TRUE(result.healthy) << result.failure;
  EXPECT_EQ(result.loss_history.size(), 12u);
  EXPECT_EQ(result.retries, 0);
  EXPECT_EQ(result.fault_events, 0);
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

TEST(TrainerRecoveryTest, OverflowPastTheLastEpochFailsTheFinalLossCheck) {
  const Dataset world = SmallWorld();
  Rng rng(8);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  TrainOptions options;
  options.epochs = 1;
  options.learning_rate = 1e300;
  const TrainResult result = TrainModel(&model, world.ratings, options);

  // The one epoch is healthy when the guard inspects it; only its Adam
  // step overflows the predictions, which the final-loss pass catches —
  // the run must be flagged unhealthy rather than return a silent NaN.
  EXPECT_EQ(result.fault_events, 0);
  EXPECT_FALSE(std::isfinite(result.final_loss));
  EXPECT_FALSE(result.healthy);
  EXPECT_EQ(result.failure, "non-finite final loss");
}

}  // namespace
}  // namespace msopds
