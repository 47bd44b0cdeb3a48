#ifndef MSOPDS_SCALE_SHARD_IO_H_
#define MSOPDS_SCALE_SHARD_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace msopds {
namespace scale {

/// One user-range shard of a heterogeneous dataset in its serialized
/// form (DESIGN.md §17). Users are partitioned into contiguous ranges;
/// a shard owns the CSR rating rows and social adjacency of its user
/// range plus the item-graph adjacency of a contiguous item range.
/// Every rating carries a global sequence number (`rating_seqs`) — its
/// first-occurrence ordinal in the source — so the k-way merge can
/// reproduce the original `Dataset::ratings` order bit-exactly.
struct ShardContents {
  // Header metadata.
  int64_t shard_index = 0;
  int64_t num_shards = 1;
  int64_t user_begin = 0;  // owned user range [user_begin, user_end)
  int64_t user_end = 0;
  int64_t item_begin = 0;  // owned item range [item_begin, item_end)
  int64_t item_end = 0;
  int64_t num_users = 0;   // global counts
  int64_t num_items = 0;
  int64_t total_ratings = 0;
  std::string name;

  // Rating CSR over owned users: row u (user_begin + u) spans
  // [rating_offsets[u], rating_offsets[u + 1]).
  std::vector<int64_t> rating_offsets;  // size owned_users() + 1
  std::vector<int64_t> rating_items;
  std::vector<double> rating_values;
  std::vector<int64_t> rating_seqs;

  // Social adjacency slices of owned users, neighbor ids global, list
  // order identical to UndirectedGraph::Neighbors() of the source graph.
  std::vector<int64_t> social_offsets;  // size owned_users() + 1
  std::vector<int64_t> social_neighbors;

  // Item-graph adjacency slices of owned items (same layout).
  std::vector<int64_t> item_offsets;  // size owned_items() + 1
  std::vector<int64_t> item_neighbors;

  int64_t owned_users() const { return user_end - user_begin; }
  int64_t owned_items() const { return item_end - item_begin; }
  int64_t num_ratings() const {
    return static_cast<int64_t>(rating_items.size());
  }
};

/// Serialized layout (little-endian, all sections 8-byte aligned):
///   [0,8)    magic "MSOPDSH1"
///   [8,120)  14 int64 header fields (version, shard_index, num_shards,
///            user_begin, user_end, item_begin, item_end, num_users,
///            num_items, num_ratings, total_ratings, social_entries,
///            item_entries, name_len)
///   [120,128) header checksum: FNV-1a 64 over bytes [0, 120)
///   [128,136) payload checksum: FNV-1a 64 over bytes [136, EOF)
///   [136,..)  payload: name (zero-padded to 8), rating_offsets,
///            rating_items, rating_values, rating_seqs, social_offsets,
///            social_neighbors, item_offsets, item_neighbors
inline constexpr char kShardMagic[8] = {'M', 'S', 'O', 'P', 'D', 'S',
                                        'H', '1'};
inline constexpr int64_t kShardFormatVersion = 1;
inline constexpr int64_t kShardHeaderBytes = 136;

/// "shard-00003-of-00016.msd" — fixed-width so a sorted directory
/// listing is also shard-index order.
std::string ShardFileName(int64_t shard_index, int64_t num_shards);

/// Serializes one shard. Writes to `path + ".tmp"` and renames into
/// place, so a crash mid-write never leaves a half-written file under
/// the final name.
class ShardWriter {
 public:
  explicit ShardWriter(std::string directory);

  /// Writes `contents` as ShardFileName(...) under the directory;
  /// returns the final path.
  StatusOr<std::string> Write(const ShardContents& contents) const;

  const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
};

/// Read-only view of one serialized shard. Open() validates the magic,
/// version, both checksums, and section-size consistency before any
/// payload pointer is handed out; every rejection names the file and the
/// byte offset of the offending field ("path: offset 120: ..."). The
/// payload is mmap-backed where the platform supports it (so sequential
/// shard-at-a-time training keeps at most ~one shard resident), with a
/// heap read fallback elsewhere.
class ShardReader {
 public:
  static StatusOr<ShardReader> Open(const std::string& path);

  ShardReader(ShardReader&& other) noexcept;
  ShardReader& operator=(ShardReader&& other) noexcept;
  ShardReader(const ShardReader&) = delete;
  ShardReader& operator=(const ShardReader&) = delete;
  ~ShardReader();

  const std::string& path() const { return path_; }
  int64_t shard_index() const { return shard_index_; }
  int64_t num_shards() const { return num_shards_; }
  int64_t user_begin() const { return user_begin_; }
  int64_t user_end() const { return user_end_; }
  int64_t item_begin() const { return item_begin_; }
  int64_t item_end() const { return item_end_; }
  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t num_ratings() const { return num_ratings_; }
  int64_t total_ratings() const { return total_ratings_; }
  int64_t owned_users() const { return user_end_ - user_begin_; }
  int64_t owned_items() const { return item_end_ - item_begin_; }
  const std::string& name() const { return name_; }

  const int64_t* rating_offsets() const { return rating_offsets_; }
  const int64_t* rating_items() const { return rating_items_; }
  const double* rating_values() const { return rating_values_; }
  const int64_t* rating_seqs() const { return rating_seqs_; }
  const int64_t* social_offsets() const { return social_offsets_; }
  const int64_t* social_neighbors() const { return social_neighbors_; }
  int64_t social_entries() const { return social_entries_; }
  const int64_t* item_offsets() const { return item_offsets_; }
  const int64_t* item_neighbors() const { return item_neighbors_; }
  int64_t item_entries() const { return item_entries_; }

  /// Bytes of the underlying file (header + payload).
  int64_t file_bytes() const { return file_bytes_; }
  /// True when the payload is served from an mmap (vs a heap copy).
  bool mmapped() const { return mapped_addr_ != nullptr; }

 private:
  ShardReader() = default;
  void Release();

  std::string path_;
  int64_t shard_index_ = 0;
  int64_t num_shards_ = 0;
  int64_t user_begin_ = 0;
  int64_t user_end_ = 0;
  int64_t item_begin_ = 0;
  int64_t item_end_ = 0;
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t num_ratings_ = 0;
  int64_t total_ratings_ = 0;
  int64_t social_entries_ = 0;
  int64_t item_entries_ = 0;
  int64_t file_bytes_ = 0;
  std::string name_;

  const int64_t* rating_offsets_ = nullptr;
  const int64_t* rating_items_ = nullptr;
  const double* rating_values_ = nullptr;
  const int64_t* rating_seqs_ = nullptr;
  const int64_t* social_offsets_ = nullptr;
  const int64_t* social_neighbors_ = nullptr;
  const int64_t* item_offsets_ = nullptr;
  const int64_t* item_neighbors_ = nullptr;

  void* mapped_addr_ = nullptr;  // non-null iff mmap succeeded
  size_t mapped_len_ = 0;
  std::vector<uint8_t> heap_copy_;  // fallback storage
};

}  // namespace scale
}  // namespace msopds

#endif  // MSOPDS_SCALE_SHARD_IO_H_
