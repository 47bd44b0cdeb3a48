#include "scale/ingest.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/tsv_loader.h"
#include "scale/sharded_dataset.h"
#include "util/string_util.h"

namespace msopds {
namespace scale {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

/// A fixture TSV pair exercising every loader quirk the ingester must
/// mirror: interleaved user/item first occurrences (interning order),
/// duplicate (user, item) pairs (last value wins, sequence = first
/// occurrence), comments and blank lines, trust rows with unknown users,
/// self-loops, and duplicate/reversed edges.
struct TsvFixture {
  std::string ratings_path;
  std::string trust_path;
};

TsvFixture WriteFixture(const std::string& dir) {
  TsvFixture fixture;
  fixture.ratings_path = dir + "/ratings.tsv";
  fixture.trust_path = dir + "/trust.tsv";
  WriteFile(fixture.ratings_path,
            "# header comment\n"
            "10\t500\t4\n"
            "11\t501\t3\n"
            "\n"
            "10\t501\t5\n"
            "12\t500\t2\n"
            "10\t500\t1\n"  // duplicate pair: value 1 wins, seq stays first
            "13\t502\t4\n"
            "11\t500\t5\n"
            "14\t503\t3\n"
            "12\t502\t1\n");
  WriteFile(fixture.trust_path,
            "# trust dump\n"
            "10\t11\n"
            "11\t10\n"      // reverse duplicate: ignored
            "12\t12\n"      // self-loop: ignored
            "10\t99\n"      // unknown user: ignored
            "13\t10\n"
            "12\t14\n"
            "10\t11\n");    // exact duplicate: ignored
  return fixture;
}

TEST(IngestTest, ShardsMergeBitIdenticalToLoadTsvAtEveryShardCount) {
  const std::string dir = FreshDir("ingest_equiv");
  const TsvFixture fixture = WriteFixture(dir);

  TsvOptions tsv_options;
  tsv_options.name = "ingest-equiv";
  auto reference =
      LoadTsv(fixture.ratings_path, fixture.trust_path, tsv_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // 8 shards is more than the fixture's 5 users: some shards are empty.
  for (int64_t shards : {1, 3, 5, 8}) {
    const std::string shard_dir = dir + StrFormat("/shards_%lld",
                                                  static_cast<long long>(shards));
    IngestOptions options;
    options.name = "ingest-equiv";
    options.num_shards = shards;
    auto stats = IngestTsvToShards(fixture.ratings_path, fixture.trust_path,
                                   shard_dir, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(static_cast<int64_t>(stats.value().shard_paths.size()), shards);
    EXPECT_EQ(stats.value().num_users, reference.value().num_users);
    EXPECT_EQ(stats.value().num_items, reference.value().num_items);
    EXPECT_EQ(stats.value().num_ratings,
              static_cast<int64_t>(reference.value().ratings.size()));
    EXPECT_EQ(stats.value().social_edges,
              reference.value().social.num_edges());
    auto listed = ListShardPaths(shard_dir);
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    EXPECT_EQ(listed.value(), stats.value().shard_paths);

    auto merged = MergeShards(stats.value().shard_paths);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    std::string why;
    EXPECT_TRUE(DatasetsIdentical(reference.value(), merged.value(), &why))
        << "shards=" << shards << ": " << why;
  }
}

TEST(IngestTest, MatchesLoadTsvUnderBadRowTolerance) {
  const std::string dir = FreshDir("ingest_tolerance");
  TsvFixture fixture;
  fixture.ratings_path = dir + "/ratings.tsv";
  fixture.trust_path = dir + "/trust.tsv";
  WriteFile(fixture.ratings_path,
            "10\t500\t4\n"
            "not-a-number\t500\t4\n"  // bad row 1
            "11\t501\t9\n"            // bad row 2: rating out of [1, 5]
            "12\t502\t3\n");
  WriteFile(fixture.trust_path, "10\t11\n");

  TsvOptions tsv_options;
  tsv_options.name = "tolerant";
  tsv_options.max_bad_rows = 2;
  auto reference =
      LoadTsv(fixture.ratings_path, fixture.trust_path, tsv_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  IngestOptions options;
  options.name = "tolerant";
  options.max_bad_rows = 2;
  options.num_shards = 2;
  auto stats = IngestTsvToShards(fixture.ratings_path, fixture.trust_path,
                                 dir + "/shards", options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().bad_rows, 2);

  auto merged = MergeShards(stats.value().shard_paths);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  std::string why;
  EXPECT_TRUE(DatasetsIdentical(reference.value(), merged.value(), &why))
      << why;
}

TEST(IngestTest, StrictModeReportsFileLineAndByteOffset) {
  // One row of every bad kind, each on line 2 of its file behind a
  // 9-byte valid line. LoadTsv and the ingester share one row grammar,
  // so they must fail with the same code and the same message, and the
  // message must let an operator seek straight to the offending bytes:
  // "path:line (byte N): reason".
  struct BadRow {
    const char* kind;
    const char* ratings;
    const char* trust;
    StatusCode code;
    const char* reason;
  };
  const BadRow kBadRows[] = {
      {"short_ratings_row", "10\t500\t4\n10\t501\n", "",
       StatusCode::kInvalidArgument, "ratings row needs 3 fields"},
      {"malformed_ratings_row", "10\t500\t4\ngarbage\trow\tx\n", "",
       StatusCode::kInvalidArgument, "malformed ratings row"},
      {"out_of_range_rating", "10\t500\t4\n10\t501\t7\n", "",
       StatusCode::kOutOfRange, "rating 7.000 outside [1,5]"},
      {"nan_rating", "10\t500\t4\n10\t501\tnan\n", "",
       StatusCode::kOutOfRange, "rating nan outside [1,5]"},
      {"short_trust_row", "10\t500\t4\n", "10\t10000\n11\n",
       StatusCode::kInvalidArgument, "trust row needs 2 fields"},
      {"malformed_trust_row", "10\t500\t4\n", "10\t10000\n10\tx\n",
       StatusCode::kInvalidArgument, "malformed trust row"},
  };
  for (const BadRow& bad : kBadRows) {
    SCOPED_TRACE(bad.kind);
    const std::string dir = FreshDir(std::string("ingest_strict_") + bad.kind);
    const std::string ratings_path = dir + "/ratings.tsv";
    const std::string trust_path = dir + "/trust.tsv";
    WriteFile(ratings_path, bad.ratings);
    WriteFile(trust_path, bad.trust);
    const std::string bad_path = *bad.trust == '\0' ? ratings_path : trust_path;

    auto loaded = LoadTsv(ratings_path, trust_path, TsvOptions());
    IngestOptions options;  // max_bad_rows = 0: strict
    auto stats =
        IngestTsvToShards(ratings_path, trust_path, dir + "/shards", options);
    ASSERT_FALSE(loaded.ok());
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(loaded.status().code(), bad.code);
    EXPECT_EQ(stats.status().code(), bad.code);
    EXPECT_EQ(loaded.status().message(),
              bad_path + ":2 (byte 9): " + bad.reason);
    EXPECT_EQ(stats.status().message(), loaded.status().message());
  }
}

TEST(IngestTest, BuildItemGraphFalseYieldsEmptyItemGraphOnly) {
  const std::string dir = FreshDir("ingest_no_item_graph");
  const TsvFixture fixture = WriteFixture(dir);

  TsvOptions tsv_options;
  tsv_options.name = "no-item-graph";
  auto reference =
      LoadTsv(fixture.ratings_path, fixture.trust_path, tsv_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  IngestOptions options;
  options.name = "no-item-graph";
  options.num_shards = 2;
  options.build_item_graph = false;
  auto stats = IngestTsvToShards(fixture.ratings_path, fixture.trust_path,
                                 dir + "/shards", options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto merged = MergeShards(stats.value().shard_paths);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  // Same ratings and social network; the item graph is the only field the
  // strict-memory mode gives up.
  EXPECT_EQ(merged.value().items.num_edges(), 0);
  Dataset expected = reference.value();
  expected.items = UndirectedGraph(expected.num_items);
  std::string why;
  EXPECT_TRUE(DatasetsIdentical(expected, merged.value(), &why)) << why;
}

TEST(IngestTest, CleansUpSpillDirectory) {
  const std::string dir = FreshDir("ingest_spill_cleanup");
  const TsvFixture fixture = WriteFixture(dir);
  const std::string shard_dir = dir + "/shards";
  IngestOptions options;
  options.num_shards = 3;
  auto stats = IngestTsvToShards(fixture.ratings_path, fixture.trust_path,
                                 shard_dir, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(shard_dir + "/.ingest-spill"));
}

}  // namespace
}  // namespace scale
}  // namespace msopds
