#include "scale/sharded_dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "scale/shard_io.h"
#include "shard_fixtures.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace msopds {
namespace scale {
namespace {

Dataset TestDataset() {
  SyntheticConfig config;
  config.name = "shard-test";
  // Deliberately not divisible by any tested shard count, so partition
  // boundaries land mid-range.
  config.num_users = 57;
  config.num_items = 41;
  config.num_ratings = 400;
  config.num_social_links = 150;
  Rng rng(123);
  return GenerateSynthetic(config, &rng);
}

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

void FlipByte(const std::string& path, int64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x5a;
  file.seekp(offset);
  file.write(&byte, 1);
}

/// Writes a one-shard set of a 3-user, 2-item dataset with ShardWriter
/// and returns its path.
std::string WriteOneShard(const std::string& dir_name) {
  ShardContents shard;
  shard.user_end = 3;
  shard.item_end = 2;
  shard.num_users = 3;
  shard.num_items = 2;
  shard.total_ratings = 3;
  shard.name = "shard-test";
  // User 0 rated item 0; user 2 rated items 0 and 1.
  shard.rating_offsets = {0, 1, 1, 3};
  shard.rating_items = {0, 0, 1};
  shard.rating_values = {4.0, 5.0, 2.0};
  shard.rating_seqs = {0, 1, 2};
  // Users 0 and 1 are friends; items 0 and 1 are linked.
  shard.social_offsets = {0, 1, 2, 2};
  shard.social_neighbors = {1, 0};
  shard.item_offsets = {0, 1, 2};
  shard.item_neighbors = {1, 0};
  auto path = ShardWriter(FreshDir(dir_name)).Write(shard);
  EXPECT_TRUE(path.ok()) << path.status().ToString();
  return path.ok() ? path.value() : std::string();
}

TEST(PartitionTest, RangesTileExactlyAndOwnerAgrees) {
  for (int64_t total : {0, 1, 5, 57, 97}) {
    for (int64_t shards : {1, 2, 4, 7, 13}) {
      int64_t cursor = 0;
      for (int64_t s = 0; s < shards; ++s) {
        const ShardRange range = PartitionRange(total, shards, s);
        EXPECT_EQ(range.begin, cursor)
            << "total=" << total << " shards=" << shards << " s=" << s;
        EXPECT_LE(range.begin, range.end);
        for (int64_t id = range.begin; id < range.end; ++id) {
          EXPECT_EQ(OwnerShard(id, total, shards), s)
              << "id=" << id << " total=" << total << " shards=" << shards;
        }
        cursor = range.end;
      }
      EXPECT_EQ(cursor, total) << "total=" << total << " shards=" << shards;
    }
  }
}

TEST(ShardFileNameTest, FixedWidthSoLexicographicOrderIsIndexOrder) {
  EXPECT_EQ(ShardFileName(3, 16), "shard-00003-of-00016.msd");
  EXPECT_EQ(ShardFileName(0, 1), "shard-00000-of-00001.msd");
}

TEST(ShardRoundTripTest, UserMajorViewPreservesWithinUserOrder) {
  const Dataset dataset = TestDataset();
  const std::vector<Rating> view = UserMajorRatings(dataset);
  // Sorted by user; ties keep the original (first-occurrence) order —
  // i.e. the view is exactly the stable sort of the original rows.
  std::vector<Rating> expected = dataset.ratings;
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const Rating& a, const Rating& b) { return a.user < b.user; });
  ASSERT_EQ(view.size(), expected.size());
  for (size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i], expected[i]) << "row " << i;
  }
}

TEST(MergeShardsTest, RefusesIncompleteShardSet) {
  const IngestedShards shards =
      IngestShards(TestDataset(), FreshDir("shard_incomplete"), 4);
  ASSERT_EQ(shards.paths.size(), 4u);
  std::vector<std::string> missing_one(shards.paths.begin(),
                                       shards.paths.end() - 1);
  auto merged = MergeShards(missing_one);
  EXPECT_FALSE(merged.ok());
}

TEST(ShardReaderTest, MissingFileIsNotFound) {
  auto reader = ShardReader::Open(testing::TempDir() + "/no_such_shard.msd");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(ShardReaderTest, RejectsBadMagicWithPathAndOffset) {
  const std::string path = WriteOneShard("shard_bad_magic");
  FlipByte(path, 0);
  auto reader = ShardReader::Open(path);
  ASSERT_FALSE(reader.ok());
  const std::string message(reader.status().message());
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("offset 0:"), std::string::npos) << message;
  EXPECT_NE(message.find("bad magic"), std::string::npos) << message;
}

TEST(ShardReaderTest, RejectsUnsupportedVersionWithOffset) {
  const std::string path = WriteOneShard("shard_bad_version");
  // The version int64 lives at offset 8, right after the magic. The
  // version gate fires before the header checksum so old readers give the
  // actionable message, not a generic corruption one.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    const int64_t bogus = 99;
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  auto reader = ShardReader::Open(path);
  ASSERT_FALSE(reader.ok());
  const std::string message(reader.status().message());
  EXPECT_NE(message.find("offset 8:"), std::string::npos) << message;
  EXPECT_NE(message.find("unsupported shard format version 99"),
            std::string::npos)
      << message;
}

TEST(ShardReaderTest, RejectsHeaderCorruptionViaChecksum) {
  const std::string path = WriteOneShard("shard_bad_header");
  FlipByte(path, 16);  // inside the shard_index field
  auto reader = ShardReader::Open(path);
  ASSERT_FALSE(reader.ok());
  const std::string message(reader.status().message());
  EXPECT_NE(message.find("offset 120:"), std::string::npos) << message;
  EXPECT_NE(message.find("header checksum mismatch"), std::string::npos)
      << message;
}

TEST(ShardReaderTest, RejectsPayloadCorruptionViaChecksum) {
  const std::string path = WriteOneShard("shard_bad_payload");
  const int64_t size =
      static_cast<int64_t>(std::filesystem::file_size(path));
  ASSERT_GT(size, kShardHeaderBytes);
  FlipByte(path, size - 1);
  auto reader = ShardReader::Open(path);
  ASSERT_FALSE(reader.ok());
  const std::string message(reader.status().message());
  EXPECT_NE(message.find("offset 128:"), std::string::npos) << message;
  EXPECT_NE(message.find("payload checksum mismatch"), std::string::npos)
      << message;
}

TEST(ShardReaderTest, RejectsTruncatedHeader) {
  const std::string path = WriteOneShard("shard_truncated_header");
  std::filesystem::resize_file(path, 100);
  auto reader = ShardReader::Open(path);
  ASSERT_FALSE(reader.ok());
  const std::string message(reader.status().message());
  EXPECT_NE(message.find("offset 0:"), std::string::npos) << message;
  EXPECT_NE(message.find("truncated header"), std::string::npos) << message;
}

TEST(ShardReaderTest, RejectsTruncatedPayload) {
  const std::string path = WriteOneShard("shard_truncated_payload");
  const int64_t size =
      static_cast<int64_t>(std::filesystem::file_size(path));
  std::filesystem::resize_file(path, size - 8);
  auto reader = ShardReader::Open(path);
  ASSERT_FALSE(reader.ok());
  const std::string message(reader.status().message());
  EXPECT_NE(message.find(StrFormat("offset %lld:", static_cast<long long>(
                                       kShardHeaderBytes))),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("header implies"), std::string::npos) << message;
}

TEST(ShardReaderTest, RoundTripsHeaderFieldsAndName) {
  const IngestedShards shards =
      IngestShards(TestDataset(), FreshDir("shard_header_fields"), 2);
  ASSERT_EQ(shards.paths.size(), 2u);
  const Dataset& dataset = shards.dataset;
  int64_t total_seen = 0;
  for (int64_t s = 0; s < 2; ++s) {
    auto reader = ShardReader::Open(shards.paths[static_cast<size_t>(s)]);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value().shard_index(), s);
    EXPECT_EQ(reader.value().num_shards(), 2);
    EXPECT_EQ(reader.value().num_users(), dataset.num_users);
    EXPECT_EQ(reader.value().num_items(), dataset.num_items);
    EXPECT_EQ(reader.value().total_ratings(),
              static_cast<int64_t>(dataset.ratings.size()));
    EXPECT_EQ(reader.value().name(), dataset.name);
    const ShardRange range = PartitionRange(dataset.num_users, 2, s);
    EXPECT_EQ(reader.value().user_begin(), range.begin);
    EXPECT_EQ(reader.value().user_end(), range.end);
    total_seen += reader.value().num_ratings();
  }
  EXPECT_EQ(total_seen, static_cast<int64_t>(dataset.ratings.size()));
}

}  // namespace
}  // namespace scale
}  // namespace msopds
