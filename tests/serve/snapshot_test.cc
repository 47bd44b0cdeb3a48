#include "serve/model_snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/matrix_factorization.h"
#include "recsys/trainer.h"
#include "util/arena.h"
#include "util/rng.h"

namespace msopds {
namespace serve {
namespace {

Dataset SmallWorld(uint64_t seed = 21) {
  SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 60;
  config.num_ratings = 500;
  config.num_social_links = 150;
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

// Every (user, item) pair: the snapshot must reproduce the live model's
// PredictPairs bit for bit — not approximately.
void ExpectBitIdenticalScores(RatingModel* model,
                              const ModelSnapshot& snapshot,
                              const Dataset& world) {
  std::vector<int64_t> users, items;
  for (int64_t u = 0; u < world.num_users; ++u) {
    for (int64_t i = 0; i < world.num_items; ++i) {
      users.push_back(u);
      items.push_back(i);
    }
  }
  const Tensor predictions = model->PredictPairs(users, items);
  for (size_t p = 0; p < users.size(); ++p) {
    const double live = predictions.at(static_cast<int64_t>(p));
    const double snap = snapshot.Score(users[p], items[p]);
    ASSERT_EQ(live, snap) << "user " << users[p] << " item " << items[p];
  }
}

TEST(ModelSnapshotTest, MatrixFactorizationScoresBitIdentical) {
  const Dataset world = SmallWorld();
  Rng rng(1);
  MatrixFactorization model(world.num_users, world.num_items, MfConfig{}, 3.5,
                            &rng);
  TrainOptions options;
  options.epochs = 5;
  TrainModel(&model, world.ratings, options);
  auto snapshot = ModelSnapshot::FromModel(&model, world);
  ASSERT_TRUE(snapshot->has_user_bias());
  ASSERT_TRUE(snapshot->has_item_bias());
  ExpectBitIdenticalScores(&model, *snapshot, world);
}

TEST(ModelSnapshotTest, HetRecSysScoresBitIdentical) {
  const Dataset world = SmallWorld();
  Rng rng(3);
  HetRecSys model(world, HetRecSysConfig{}, &rng);
  auto snapshot = ModelSnapshot::FromModel(&model, world);
  // Factors plus an offset, no biases: the bias-free snapshot path.
  EXPECT_FALSE(snapshot->has_user_bias());
  EXPECT_FALSE(snapshot->has_item_bias());
  ExpectBitIdenticalScores(&model, *snapshot, world);
}

TEST(ModelSnapshotTest, CarriesVersionAndSource) {
  const Dataset world = SmallWorld();
  Rng rng(4);
  MatrixFactorization model(world.num_users, world.num_items, MfConfig{}, 3.5,
                            &rng);
  SnapshotOptions options;
  options.version = 42;
  options.source = "mf-test";
  auto snapshot = ModelSnapshot::FromModel(&model, world, options);
  EXPECT_EQ(snapshot->version(), 42u);
  EXPECT_EQ(snapshot->source(), "mf-test");
  EXPECT_GT(snapshot->PayloadBytes(), 0);
}

// The arena-lifetime regression the snapshot exists to prevent: build the
// snapshot from an ArenaRegion-scoped model, let the region exit AND the
// model die AND the arena recycle its buffers, then score. If the
// snapshot aliased any TensorStorage this reads recycled (Debug/ASan:
// poisoned) memory; the deep-copied snapshot must still reproduce the
// values captured while the model was alive.
TEST(ModelSnapshotTest, SnapshotOutlivesArenaRegionAndModel) {
  const Dataset world = SmallWorld();
  const bool previous = Arena::Global().SetEnabled(true);
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::vector<double> expected;
  {
    ArenaRegion region;
    Rng rng(5);
    MatrixFactorization model(world.num_users, world.num_items, MfConfig{},
                              3.5, &rng);
    TrainOptions options;
    options.epochs = 3;
    TrainModel(&model, world.ratings, options);
    snapshot = ModelSnapshot::FromModel(&model, world);
    for (int64_t u = 0; u < world.num_users; ++u) {
      expected.push_back(snapshot->Score(u, u % world.num_items));
    }
  }
  // Churn the arena so any aliased buffer is certainly reused.
  {
    ArenaRegion region;
    Rng rng(6);
    MatrixFactorization churn(world.num_users, world.num_items, MfConfig{},
                              3.5, &rng);
    TrainOptions options;
    options.epochs = 3;
    TrainModel(&churn, world.ratings, options);
  }
  for (int64_t u = 0; u < world.num_users; ++u) {
    EXPECT_EQ(snapshot->Score(u, u % world.num_items),
              expected[static_cast<size_t>(u)]);
  }
  Arena::Global().SetEnabled(previous);
}

TEST(SeenItemsCsrTest, RowsAreSortedAndComplete) {
  std::vector<Rating> ratings = {
      {0, 5, 4.0}, {0, 2, 3.0}, {0, 9, 5.0},  // user 0, out of order
      {2, 1, 2.0},                            // user 1 empty
  };
  const SeenItemsCsr csr = SeenItemsCsr::FromRatings(3, 10, ratings);
  ASSERT_EQ(csr.num_users(), 3);
  ASSERT_EQ(csr.RowSize(0), 3);
  EXPECT_EQ(csr.Row(0)[0], 2);
  EXPECT_EQ(csr.Row(0)[1], 5);
  EXPECT_EQ(csr.Row(0)[2], 9);
  EXPECT_EQ(csr.RowSize(1), 0);
  ASSERT_EQ(csr.RowSize(2), 1);
  EXPECT_EQ(csr.Row(2)[0], 1);
  EXPECT_TRUE(csr.Contains(0, 5));
  EXPECT_FALSE(csr.Contains(0, 4));
  EXPECT_FALSE(csr.Contains(1, 5));
}

TEST(SeenItemsCsrTest, DuplicateRatingsKeepOneEntry) {
  std::vector<Rating> ratings = {{0, 3, 4.0}, {0, 3, 5.0}, {0, 3, 1.0}};
  const SeenItemsCsr csr = SeenItemsCsr::FromRatings(1, 5, ratings);
  // Duplicates may repeat in the row (CSR mirrors the rating list), but
  // the row stays sorted so the exclusion cursor handles them.
  ASSERT_GE(csr.RowSize(0), 1);
  for (int64_t i = 1; i < csr.RowSize(0); ++i) {
    EXPECT_LE(csr.Row(0)[i - 1], csr.Row(0)[i]);
  }
  EXPECT_TRUE(csr.Contains(0, 3));
}

}  // namespace
}  // namespace serve
}  // namespace msopds
