#include "scale/sharded_dataset.h"

#include <algorithm>
#include <filesystem>
#include <queue>
#include <system_error>

#include "util/logging.h"
#include "util/string_util.h"

namespace msopds {
namespace scale {

ShardRange PartitionRange(int64_t total, int64_t num_shards, int64_t shard) {
  MSOPDS_CHECK_GE(total, 0);
  MSOPDS_CHECK_GT(num_shards, 0);
  MSOPDS_CHECK_GE(shard, 0);
  MSOPDS_CHECK_LT(shard, num_shards);
  ShardRange range;
  range.begin = total * shard / num_shards;
  range.end = total * (shard + 1) / num_shards;
  return range;
}

int64_t OwnerShard(int64_t id, int64_t total, int64_t num_shards) {
  MSOPDS_CHECK_GE(id, 0);
  MSOPDS_CHECK_LT(id, total);
  // Initial guess from the inverse of begin = total*s/num_shards, then
  // nudge across the floor-division boundary (at most one step each way).
  int64_t shard = std::min(id * num_shards / total, num_shards - 1);
  while (shard + 1 < num_shards &&
         PartitionRange(total, num_shards, shard).end <= id) {
    ++shard;
  }
  while (shard > 0 && PartitionRange(total, num_shards, shard).begin > id) {
    --shard;
  }
  return shard;
}

StatusOr<std::vector<std::string>> ListShardPaths(
    const std::string& directory) {
  // Find the shard count from any one member, then enumerate the fixed
  // file-name pattern — deterministic regardless of directory order.
  std::error_code ec;
  int64_t num_shards = -1;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    const std::string file = entry.path().filename().string();
    long long index = 0, total = 0;
    if (std::sscanf(file.c_str(), "shard-%05lld-of-%05lld.msd", &index,
                    &total) == 2) {
      num_shards = static_cast<int64_t>(total);
      break;
    }
  }
  if (ec) {
    return Status::NotFound("cannot list shard directory " + directory +
                            ": " + ec.message());
  }
  if (num_shards <= 0) {
    return Status::NotFound("no shard files under " + directory);
  }
  std::vector<std::string> paths;
  paths.reserve(static_cast<size_t>(num_shards));
  for (int64_t s = 0; s < num_shards; ++s) {
    paths.push_back(directory + "/" + ShardFileName(s, num_shards));
  }
  return paths;
}

namespace {

Status Inconsistent(const std::string& path, const std::string& what) {
  return Status::InvalidArgument(path + ": " + what);
}

}  // namespace

StatusOr<Dataset> MergeShards(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("MergeShards needs at least one shard");
  }
  std::vector<ShardReader> readers;
  readers.reserve(paths.size());
  for (const std::string& path : paths) {
    auto reader = ShardReader::Open(path);
    if (!reader.ok()) return reader.status();
    readers.push_back(std::move(reader).value());
  }

  const ShardReader& first = readers.front();
  const int64_t num_shards = first.num_shards();
  if (num_shards != static_cast<int64_t>(readers.size())) {
    return Inconsistent(
        first.path(),
        StrFormat("shard set is incomplete: %zu file(s) for num_shards %lld",
                  readers.size(), static_cast<long long>(num_shards)));
  }
  std::vector<bool> seen(static_cast<size_t>(num_shards), false);
  int64_t ratings_across_shards = 0;
  for (const ShardReader& reader : readers) {
    if (reader.num_shards() != num_shards ||
        reader.num_users() != first.num_users() ||
        reader.num_items() != first.num_items() ||
        reader.total_ratings() != first.total_ratings() ||
        reader.name() != first.name()) {
      return Inconsistent(reader.path(),
                          "shard disagrees with " + first.path() +
                              " on global metadata (different shard sets?)");
    }
    if (seen[static_cast<size_t>(reader.shard_index())]) {
      return Inconsistent(reader.path(),
                          StrFormat("duplicate shard index %lld",
                                    static_cast<long long>(
                                        reader.shard_index())));
    }
    seen[static_cast<size_t>(reader.shard_index())] = true;
    const ShardRange users = PartitionRange(first.num_users(), num_shards,
                                            reader.shard_index());
    const ShardRange items = PartitionRange(first.num_items(), num_shards,
                                            reader.shard_index());
    if (reader.user_begin() != users.begin ||
        reader.user_end() != users.end ||
        reader.item_begin() != items.begin ||
        reader.item_end() != items.end) {
      return Inconsistent(reader.path(),
                          "shard ranges do not match the canonical "
                          "partition for its index");
    }
    ratings_across_shards += reader.num_ratings();
  }
  if (ratings_across_shards != first.total_ratings()) {
    return Inconsistent(
        first.path(),
        StrFormat("shards hold %lld ratings but the header claims %lld",
                  static_cast<long long>(ratings_across_shards),
                  static_cast<long long>(first.total_ratings())));
  }

  Dataset dataset;
  dataset.name = first.name();
  dataset.num_users = first.num_users();
  dataset.num_items = first.num_items();

  // Ratings: per shard, a seq-sorted permutation of its rows; then a
  // k-way heap merge pops the globally smallest sequence number. Seqs
  // are unique by construction, so the pop order — and therefore the
  // merged rating order — is a pure function of the shard contents.
  struct ShardStream {
    std::vector<int64_t> by_seq;  // row indices sorted by rating_seqs
    std::vector<int64_t> row_user;
    size_t pos = 0;
  };
  std::vector<ShardStream> streams(readers.size());
  for (size_t si = 0; si < readers.size(); ++si) {
    const ShardReader& reader = readers[si];
    ShardStream& stream = streams[si];
    stream.by_seq.resize(static_cast<size_t>(reader.num_ratings()));
    stream.row_user.resize(static_cast<size_t>(reader.num_ratings()));
    for (int64_t u = reader.user_begin(); u < reader.user_end(); ++u) {
      const int64_t row_begin =
          reader.rating_offsets()[u - reader.user_begin()];
      const int64_t row_end =
          reader.rating_offsets()[u - reader.user_begin() + 1];
      for (int64_t row = row_begin; row < row_end; ++row) {
        stream.row_user[static_cast<size_t>(row)] = u;
      }
    }
    for (int64_t row = 0; row < reader.num_ratings(); ++row) {
      stream.by_seq[static_cast<size_t>(row)] = row;
    }
    const int64_t* seqs = reader.rating_seqs();
    std::sort(stream.by_seq.begin(), stream.by_seq.end(),
              [seqs](int64_t a, int64_t b) { return seqs[a] < seqs[b]; });
  }
  using HeapEntry = std::pair<int64_t, size_t>;  // (seq, shard stream)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (size_t si = 0; si < streams.size(); ++si) {
    if (!streams[si].by_seq.empty()) {
      heap.emplace(readers[si].rating_seqs()[streams[si].by_seq[0]], si);
    }
  }
  dataset.ratings.reserve(static_cast<size_t>(first.total_ratings()));
  int64_t previous_seq = -1;
  while (!heap.empty()) {
    const auto [seq, si] = heap.top();
    heap.pop();
    if (seq == previous_seq) {
      return Inconsistent(readers[si].path(),
                          StrFormat("duplicate rating sequence number %lld",
                                    static_cast<long long>(seq)));
    }
    previous_seq = seq;
    ShardStream& stream = streams[si];
    const ShardReader& reader = readers[si];
    const int64_t row = stream.by_seq[stream.pos];
    dataset.ratings.push_back({stream.row_user[static_cast<size_t>(row)],
                               reader.rating_items()[row],
                               reader.rating_values()[row]});
    ++stream.pos;
    if (stream.pos < stream.by_seq.size()) {
      heap.emplace(reader.rating_seqs()[stream.by_seq[stream.pos]], si);
    }
  }

  // Graphs: concatenate the stored adjacency slices (readers are already
  // verified to tile the user/item ranges) and rebuild with order
  // preserved.
  std::vector<std::vector<int64_t>> social(
      static_cast<size_t>(dataset.num_users));
  std::vector<std::vector<int64_t>> items(
      static_cast<size_t>(dataset.num_items));
  for (const ShardReader& reader : readers) {
    for (int64_t u = reader.user_begin(); u < reader.user_end(); ++u) {
      const int64_t begin = reader.social_offsets()[u - reader.user_begin()];
      const int64_t end =
          reader.social_offsets()[u - reader.user_begin() + 1];
      social[static_cast<size_t>(u)].assign(
          reader.social_neighbors() + begin, reader.social_neighbors() + end);
    }
    for (int64_t i = reader.item_begin(); i < reader.item_end(); ++i) {
      const int64_t begin = reader.item_offsets()[i - reader.item_begin()];
      const int64_t end = reader.item_offsets()[i - reader.item_begin() + 1];
      items[static_cast<size_t>(i)].assign(reader.item_neighbors() + begin,
                                           reader.item_neighbors() + end);
    }
  }
  auto social_graph = UndirectedGraph::FromAdjacency(std::move(social));
  if (!social_graph.ok()) {
    return Inconsistent(first.path(), "social adjacency slices invalid: " +
                                          social_graph.status().message());
  }
  dataset.social = std::move(social_graph).value();
  auto item_graph = UndirectedGraph::FromAdjacency(std::move(items));
  if (!item_graph.ok()) {
    return Inconsistent(first.path(), "item adjacency slices invalid: " +
                                          item_graph.status().message());
  }
  dataset.items = std::move(item_graph).value();
  return dataset;
}

bool DatasetsIdentical(const Dataset& a, const Dataset& b, std::string* why) {
  auto differ = [why](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (a.name != b.name) return differ("name differs");
  if (a.num_users != b.num_users) return differ("num_users differs");
  if (a.num_items != b.num_items) return differ("num_items differs");
  if (a.ratings.size() != b.ratings.size()) {
    return differ(StrFormat("rating count differs (%zu vs %zu)",
                            a.ratings.size(), b.ratings.size()));
  }
  for (size_t k = 0; k < a.ratings.size(); ++k) {
    if (!(a.ratings[k] == b.ratings[k])) {
      return differ(StrFormat(
          "rating %zu differs: (%lld,%lld,%.17g) vs (%lld,%lld,%.17g)", k,
          static_cast<long long>(a.ratings[k].user),
          static_cast<long long>(a.ratings[k].item), a.ratings[k].value,
          static_cast<long long>(b.ratings[k].user),
          static_cast<long long>(b.ratings[k].item), b.ratings[k].value));
    }
  }
  if (!a.social.SameStructure(b.social)) {
    return differ("social graph structure differs");
  }
  if (!a.items.SameStructure(b.items)) {
    return differ("item graph structure differs");
  }
  if (why != nullptr) why->clear();
  return true;
}

std::vector<Rating> UserMajorRatings(const Dataset& dataset) {
  std::vector<Rating> ratings = dataset.ratings;
  std::stable_sort(
      ratings.begin(), ratings.end(),
      [](const Rating& a, const Rating& b) { return a.user < b.user; });
  return ratings;
}

}  // namespace scale
}  // namespace msopds
