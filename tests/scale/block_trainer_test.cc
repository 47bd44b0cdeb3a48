#include "scale/block_trainer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "scale/sharded_dataset.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace msopds {
namespace scale {
namespace {

constexpr uint64_t kInitSeed = 2024;

Dataset TrainingDataset() {
  SyntheticConfig config;
  config.name = "ooc-train";
  config.num_users = 60;
  config.num_items = 45;
  config.num_ratings = 500;
  config.num_social_links = 200;
  Rng rng(77);
  return GenerateSynthetic(config, &rng);
}

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

MatrixFactorization FreshModel(const Dataset& dataset) {
  Rng init_rng(kInitSeed);
  return MatrixFactorization(dataset.num_users, dataset.num_items, MfConfig(),
                             3.0, &init_rng);
}

/// Bitwise tensor equality (memcmp, so NaN payloads and signed zeros
/// count too — this is the determinism contract, not a tolerance check).
void ExpectParamsBitIdentical(MatrixFactorization* expected,
                              MatrixFactorization* actual,
                              const std::string& context) {
  std::vector<Variable>* expected_params = expected->MutableParams();
  std::vector<Variable>* actual_params = actual->MutableParams();
  ASSERT_EQ(expected_params->size(), actual_params->size()) << context;
  const char* names[] = {"user_factors", "item_factors", "user_bias",
                         "item_bias"};
  for (size_t p = 0; p < expected_params->size(); ++p) {
    const Tensor& want = (*expected_params)[p].value();
    const Tensor& got = (*actual_params)[p].value();
    ASSERT_EQ(want.size(), got.size()) << context << " param " << names[p];
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          static_cast<size_t>(want.size()) * sizeof(double)),
              0)
        << context << ": param " << names[p] << " differs bitwise";
  }
}

/// Trains the whole-dataset reference (TrainModel over the canonical
/// user-major view) and the shard-streaming driver from identical
/// initializations, then asserts bitwise parameter identity plus an
/// identical loss trace.
void CheckBitIdentity(const Dataset& dataset,
                      const std::vector<std::string>& shard_paths,
                      const TrainOptions& options,
                      const std::string& context) {
  MatrixFactorization reference = FreshModel(dataset);
  const TrainResult expected =
      TrainModel(&reference, UserMajorRatings(dataset), options);
  ASSERT_TRUE(expected.healthy) << context << ": " << expected.failure;

  MatrixFactorization streamed = FreshModel(dataset);
  auto result = TrainMfOutOfCore(&streamed, shard_paths, options);
  ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();
  const OutOfCoreResult& ooc = result.value();
  EXPECT_TRUE(ooc.healthy) << context << ": " << ooc.failure;
  EXPECT_EQ(ooc.retries, expected.retries) << context;

  ASSERT_EQ(ooc.loss_history.size(), expected.loss_history.size()) << context;
  for (size_t e = 0; e < expected.loss_history.size(); ++e) {
    EXPECT_EQ(ooc.loss_history[e], expected.loss_history[e])
        << context << ": loss differs at epoch " << e;
  }
  EXPECT_EQ(ooc.final_loss, expected.final_loss) << context;
  ExpectParamsBitIdentical(&reference, &streamed, context);
}

TEST(BlockTrainerTest, BitIdenticalAcrossShardCountsThreadsAndArena) {
  const Dataset dataset = TrainingDataset();
  for (int64_t shards : {1, 4}) {
    const std::string dir = FreshDir(
        StrFormat("ooc_shards_%lld", static_cast<long long>(shards)));
    auto paths = WriteShards(dataset, dir, shards);
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    for (int threads : {1, 4}) {
      for (bool arena_on : {false, true}) {
        const bool previous = Arena::Global().SetEnabled(arena_on);
        TrainOptions options;
        options.epochs = 4;
        options.num_threads = threads;
        CheckBitIdentity(dataset, paths.value(), options,
                         StrFormat("shards=%lld threads=%d arena=%d",
                                   static_cast<long long>(shards), threads,
                                   arena_on ? 1 : 0));
        Arena::Global().SetEnabled(previous);
      }
    }
  }
}

TEST(BlockTrainerTest, ReportsShardTraffic) {
  const Dataset dataset = TrainingDataset();
  const std::string dir = FreshDir("ooc_traffic");
  auto paths = WriteShards(dataset, dir, 4);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  MatrixFactorization model = FreshModel(dataset);
  TrainOptions options;
  options.epochs = 3;
  auto result = TrainMfOutOfCore(&model, paths.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each of the 3 epochs streams all 4 shards, plus the final loss pass.
  EXPECT_EQ(result.value().shards_visited, (3 + 1) * 4);
  EXPECT_GT(result.value().peak_shard_bytes, 0);
}

TEST(BlockTrainerTest, RejectsModelShapeMismatch) {
  const Dataset dataset = TrainingDataset();
  const std::string dir = FreshDir("ooc_shape");
  auto paths = WriteShards(dataset, dir, 2);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  Rng init_rng(kInitSeed);
  MatrixFactorization wrong_shape(dataset.num_users + 3, dataset.num_items,
                                  MfConfig(), 3.0, &init_rng);
  TrainOptions options;
  options.epochs = 1;
  auto result = TrainMfOutOfCore(&wrong_shape, paths.value(), options);
  EXPECT_FALSE(result.ok());
}

TEST(BlockTrainerTest, RejectsShardSetWithoutRatings) {
  Dataset empty;
  empty.name = "no-ratings";
  empty.num_users = 4;
  empty.num_items = 3;
  empty.social = UndirectedGraph(empty.num_users);
  empty.items = UndirectedGraph(empty.num_items);
  const std::string dir = FreshDir("ooc_no_ratings");
  auto paths = WriteShards(empty, dir, 2);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  Rng init_rng(kInitSeed);
  MatrixFactorization model(empty.num_users, empty.num_items, MfConfig(), 3.0,
                            &init_rng);
  TrainOptions options;
  options.epochs = 1;
  auto result = TrainMfOutOfCore(&model, paths.value(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(paths.value().front()),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("no ratings"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace scale
}  // namespace msopds
