#ifndef MSOPDS_SCALE_SHARDED_DATASET_H_
#define MSOPDS_SCALE_SHARDED_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "scale/shard_io.h"
#include "util/status.h"

namespace msopds {
namespace scale {

/// Half-open contiguous index range.
struct ShardRange {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Deterministic per-user-range partition: shard s of S owns
/// [floor(U*s/S), floor(U*(s+1)/S)). Ranges tile [0, U) exactly for any
/// S >= 1, including non-divisors and S > U (then some shards are
/// empty). The same formula partitions items for the item-graph slices.
ShardRange PartitionRange(int64_t total, int64_t num_shards, int64_t shard);

/// Shard owning index `id` under PartitionRange(total, num_shards, ...).
int64_t OwnerShard(int64_t id, int64_t total, int64_t num_shards);

/// Shard files under `directory` in shard-index order (derived from the
/// fixed-width ShardFileName pattern; no unordered directory iteration).
StatusOr<std::vector<std::string>> ListShardPaths(
    const std::string& directory);

/// Deterministic k-way merge of a complete shard set back into one
/// in-memory Dataset, bit-identical to the dataset the shards were cut
/// from at any shard count: ratings come back in global-sequence order
/// (each shard's stream is seq-sorted and the k-way heap pops the unique
/// minimum), and both graphs are rebuilt from the stored adjacency
/// slices via UndirectedGraph::FromAdjacency, preserving neighbor order.
/// Validates that the set is complete and mutually consistent (same
/// global counts, every shard index exactly once, seqs unique).
StatusOr<Dataset> MergeShards(const std::vector<std::string>& paths);

/// Exact structural equality of two datasets: name, counts, the full
/// rating sequence (order-sensitive, double ==), and both graphs'
/// adjacency structure including neighbor order. On mismatch fills
/// `why` (when non-null) with the first difference found.
bool DatasetsIdentical(const Dataset& a, const Dataset& b, std::string* why);

/// The canonical user-major view of a dataset: ratings stably sorted by
/// user (within-user order preserved). This is the order the shard CSR
/// stores and the order block-sparse training consumes; full-batch
/// training over this view is the bit-identity reference for
/// TrainMfOutOfCore (DESIGN.md §17).
std::vector<Rating> UserMajorRatings(const Dataset& dataset);

}  // namespace scale
}  // namespace msopds

#endif  // MSOPDS_SCALE_SHARDED_DATASET_H_
