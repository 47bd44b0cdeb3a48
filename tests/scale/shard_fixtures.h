// Shard sets built the way production builds them, shared by the shard
// tests (shard_test.cc) and the out-of-core trainer tests
// (block_trainer_test.cc).

#ifndef MSOPDS_TESTS_SCALE_SHARD_FIXTURES_H_
#define MSOPDS_TESTS_SCALE_SHARD_FIXTURES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/tsv_loader.h"
#include "scale/ingest.h"

namespace msopds {
namespace scale {

/// A shard set and the dataset it merges back to.
struct IngestedShards {
  /// LoadTsv of the files the shards were ingested from.
  Dataset dataset;
  /// Shard paths in shard-index order.
  std::vector<std::string> paths;
};

/// Writes `source` to `dir` with SaveTsv and ingests those files into
/// `num_shards` shards under `dir`/shards. The reference dataset is
/// LoadTsv of the same files; ingest_test asserts that the shards merge
/// to it bit for bit. On failure the test fails and `paths` is empty.
inline IngestedShards IngestShards(const Dataset& source,
                                   const std::string& dir,
                                   int64_t num_shards) {
  const std::string ratings = dir + "/ratings.tsv";
  const std::string trust = dir + "/trust.tsv";
  IngestedShards out;
  const Status saved = SaveTsv(source, ratings, trust);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  auto loaded = LoadTsv(ratings, trust, '\t', source.name);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  IngestOptions options;
  options.name = source.name;
  options.num_shards = num_shards;
  auto stats = IngestTsvToShards(ratings, trust, dir + "/shards", options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!saved.ok() || !loaded.ok() || !stats.ok()) return out;
  out.dataset = std::move(loaded).value();
  out.paths = std::move(stats).value().shard_paths;
  return out;
}

}  // namespace scale
}  // namespace msopds

#endif  // MSOPDS_TESTS_SCALE_SHARD_FIXTURES_H_
