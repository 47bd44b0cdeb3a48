#include "scale/block_trainer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "scale/shard_io.h"
#include "scale/sharded_dataset.h"
#include "shard_fixtures.h"
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
  for (int64_t shards : {1, 4}) {
    const IngestedShards ingested = IngestShards(
        TrainingDataset(),
        FreshDir(StrFormat("ooc_shards_%lld", static_cast<long long>(shards))),
        shards);
    ASSERT_EQ(static_cast<int64_t>(ingested.paths.size()), shards);
    for (int threads : {1, 4}) {
      for (bool arena_on : {false, true}) {
        const bool previous = Arena::Global().SetEnabled(arena_on);
        TrainOptions options;
        options.epochs = 4;
        options.num_threads = threads;
        CheckBitIdentity(ingested.dataset, ingested.paths, options,
                         StrFormat("shards=%lld threads=%d arena=%d",
                                   static_cast<long long>(shards), threads,
                                   arena_on ? 1 : 0));
        Arena::Global().SetEnabled(previous);
      }
    }
  }
}

TEST(BlockTrainerTest, ReportsShardTraffic) {
  const IngestedShards ingested =
      IngestShards(TrainingDataset(), FreshDir("ooc_traffic"), 4);
  ASSERT_EQ(ingested.paths.size(), 4u);
  MatrixFactorization model = FreshModel(ingested.dataset);
  TrainOptions options;
  options.epochs = 3;
  auto result = TrainMfOutOfCore(&model, ingested.paths, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each of the 3 epochs streams all 4 shards, plus the final loss pass.
  EXPECT_EQ(result.value().shards_visited, (3 + 1) * 4);
  EXPECT_GT(result.value().peak_shard_bytes, 0);
}

TEST(BlockTrainerTest, RejectsModelShapeMismatch) {
  const IngestedShards ingested =
      IngestShards(TrainingDataset(), FreshDir("ooc_shape"), 2);
  ASSERT_EQ(ingested.paths.size(), 2u);
  Rng init_rng(kInitSeed);
  MatrixFactorization wrong_shape(ingested.dataset.num_users + 3,
                                  ingested.dataset.num_items, MfConfig(), 3.0,
                                  &init_rng);
  TrainOptions options;
  options.epochs = 1;
  auto result = TrainMfOutOfCore(&wrong_shape, ingested.paths, options);
  EXPECT_FALSE(result.ok());
}

TEST(BlockTrainerTest, RejectsShardSetWithoutRatings) {
  // Two well-formed shards of a 4-user, 3-item dataset with no ratings.
  const ShardWriter writer(FreshDir("ooc_no_ratings"));
  std::vector<std::string> paths;
  for (int64_t s = 0; s < 2; ++s) {
    ShardContents shard;
    shard.shard_index = s;
    shard.num_shards = 2;
    const ShardRange users = PartitionRange(4, 2, s);
    const ShardRange items = PartitionRange(3, 2, s);
    shard.user_begin = users.begin;
    shard.user_end = users.end;
    shard.item_begin = items.begin;
    shard.item_end = items.end;
    shard.num_users = 4;
    shard.num_items = 3;
    shard.name = "no-ratings";
    shard.rating_offsets.assign(static_cast<size_t>(shard.owned_users() + 1),
                                0);
    shard.social_offsets = shard.rating_offsets;
    shard.item_offsets.assign(static_cast<size_t>(shard.owned_items() + 1), 0);
    auto path = writer.Write(shard);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    paths.push_back(path.value());
  }
  Rng init_rng(kInitSeed);
  MatrixFactorization model(4, 3, MfConfig(), 3.0, &init_rng);
  TrainOptions options;
  options.epochs = 1;
  auto result = TrainMfOutOfCore(&model, paths, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(paths.front()),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("no ratings"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace scale
}  // namespace msopds
