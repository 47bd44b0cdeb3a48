#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/matrix_factorization.h"
#include "recsys/metrics.h"
#include "recsys/trainer.h"
#include "tensor/grad.h"

namespace msopds {
namespace {

Dataset SmallWorld(uint64_t seed = 21) {
  SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.num_ratings = 700;
  config.num_social_links = 200;
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

TEST(HetRecSysTest, TrainingLossDecreases) {
  const Dataset world = SmallWorld();
  Rng rng(1);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  TrainOptions options;
  options.epochs = 30;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  ASSERT_GE(result.loss_history.size(), 2u);
  EXPECT_LT(result.final_loss, result.loss_history.front() * 0.5);
}

TEST(HetRecSysTest, PredictionsApproachTargetsAfterTraining) {
  const Dataset world = SmallWorld();
  Rng rng(2);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  TrainOptions options;
  options.epochs = 60;
  TrainModel(&model, world.ratings, options);
  EXPECT_LT(Rmse(&model, world.ratings), 1.2);
}

TEST(HetRecSysTest, PredictPairsShapeAndDeterminism) {
  const Dataset world = SmallWorld();
  Rng rng(3);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  const std::vector<int64_t> users = {0, 1, 2};
  const std::vector<int64_t> items = {0, 0, 1};
  const Tensor a = model.PredictPairs(users, items);
  const Tensor b = model.PredictPairs(users, items);
  EXPECT_EQ(a.size(), 3);
  EXPECT_TRUE(AllClose(a, b));
}

TEST(HetRecSysTest, MeanAggregationFallbackTrains) {
  const Dataset world = SmallWorld();
  Rng rng(4);
  HetRecSysConfig config;
  config.use_attention = false;
  HetRecSys model(world, config, &rng);
  TrainOptions options;
  options.epochs = 20;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  EXPECT_LT(result.final_loss, result.loss_history.front());
}

TEST(HetRecSysTest, EmptyGraphsStillWork) {
  Dataset world = SmallWorld();
  world.social = UndirectedGraph(world.num_users);
  world.items = UndirectedGraph(world.num_items);
  Rng rng(5);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  TrainOptions options;
  options.epochs = 10;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  EXPECT_LT(result.final_loss, result.loss_history.front());
}

TEST(MatrixFactorizationTest, TrainingLossDecreases) {
  const Dataset world = SmallWorld();
  Rng rng(6);
  MatrixFactorization model(world.num_users, world.num_items, MfConfig{}, 3.5,
                            &rng);
  TrainOptions options;
  options.epochs = 40;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  EXPECT_LT(result.final_loss, result.loss_history.front() * 0.5);
}

TEST(MatrixFactorizationTest, FunctionalPredictMatchesClassPredict) {
  Rng rng(7);
  MfParams params = MakeMfParams(4, 5, MfConfig{}, 3.0, &rng);
  const Variable pred =
      MfPredict(params, MakeIndex({0, 1}), MakeIndex({2, 3}));
  EXPECT_EQ(pred.value().size(), 2);
  // mu + biases (0) + small dot product: near the global mean.
  EXPECT_NEAR(pred.value().at(0), 3.0, 0.5);
}

TEST(MatrixFactorizationTest, LossIsDifferentiableInTargets) {
  Rng rng(8);
  MfParams params = MakeMfParams(3, 3, MfConfig{}, 3.0, &rng);
  Variable targets = Param(Tensor::FromVector({4.0, 2.0}));
  Variable loss = MfLoss(params, MakeIndex({0, 1}), MakeIndex({1, 2}),
                         targets, 0.0);
  const Tensor g = GradValues(loss, {targets})[0];
  EXPECT_GT(g.MaxAbs(), 0.0);
}

TEST(TrainerTest, AdamLowersTheLoss) {
  const Dataset world = SmallWorld();
  Rng rng(9);
  MatrixFactorization model(world.num_users, world.num_items, MfConfig{}, 3.5,
                            &rng);
  TrainOptions options;
  options.epochs = 30;
  const TrainResult result = TrainModel(&model, world.ratings, options);
  EXPECT_LT(result.final_loss, result.loss_history.front());
}

TEST(MetricsTest, AverageTargetRatingClampsToRange) {
  const Dataset world = SmallWorld();
  Rng rng(10);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  const double r = AverageTargetRating(&model, {0, 1, 2, 3}, 5);
  EXPECT_GE(r, kMinRating);
  EXPECT_LE(r, kMaxRating);
}

TEST(MetricsTest, HitRateBoundsAndMonotonicityInK) {
  const Dataset world = SmallWorld();
  Rng rng(11);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  const std::vector<int64_t> audience = {0, 1, 2, 3, 4};
  const std::vector<int64_t> compete = {10, 11, 12, 13, 14, 15};
  const double h1 = HitRateAtK(&model, audience, 20, compete, 1);
  const double h3 = HitRateAtK(&model, audience, 20, compete, 3);
  const double h6 = HitRateAtK(&model, audience, 20, compete, 6);
  EXPECT_GE(h1, 0.0);
  EXPECT_LE(h1, h3);
  EXPECT_LE(h3, h6);
  EXPECT_LE(h6, 1.0);
}

TEST(MetricsTest, HitRateIsOneWhenKExceedsCompetitors) {
  const Dataset world = SmallWorld();
  Rng rng(12);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  const double h = HitRateAtK(&model, {0, 1}, 3, {7, 8}, 3);
  EXPECT_DOUBLE_EQ(h, 1.0);
}

}  // namespace
}  // namespace msopds
