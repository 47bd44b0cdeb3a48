#include "scale/ingest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "data/dataset.h"
#include "data/tsv_loader.h"
#include "graph/item_graph_builder.h"
#include "scale/sharded_dataset.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace msopds {
namespace scale {
namespace {

// Fixed-width binary spill records (plain int64/double members, no
// padding — asserted so the files are readable back with one read()).
struct RatingSpill {
  int64_t user;
  int64_t item;
  double value;
  int64_t ord;  // valid-row ordinal; monotone in source order
};
static_assert(sizeof(RatingSpill) == 32, "RatingSpill must be packed");

struct SocialSpill {
  int64_t owner;
  int64_t other;
  int64_t ord;
};
static_assert(sizeof(SocialSpill) == 24, "SocialSpill must be packed");

std::string RatingSpillPath(const std::string& dir, int64_t shard) {
  return dir + "/" + StrFormat("ratings-%05lld.spill",
                               static_cast<long long>(shard));
}

std::string SocialSpillPath(const std::string& dir, int64_t shard) {
  return dir + "/" + StrFormat("social-%05lld.spill",
                               static_cast<long long>(shard));
}

template <typename T>
StatusOr<std::vector<T>> ReadSpill(const std::string& path) {
  std::error_code ec;
  const uint64_t bytes = std::filesystem::file_size(path, ec);
  if (ec) return std::vector<T>();  // never written: shard had no rows
  if (bytes % sizeof(T) != 0) {
    return Status::Internal(path + ": spill size not a record multiple");
  }
  std::vector<T> records(bytes / sizeof(T));
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::Internal("cannot reopen spill " + path);
  }
  in.read(reinterpret_cast<char*>(records.data()),
          static_cast<std::streamsize>(bytes));
  if (!in) return Status::Internal(path + ": short spill read");
  return records;
}

// Sorted + de-duplicated view of one shard's rating spill: last write
// wins per (user, item), sequence number = first-occurrence ordinal,
// rows ordered user-major by sequence (the shard CSR order).
struct DedupedRating {
  int64_t user;
  int64_t item;
  double value;
  int64_t seq;
};

std::vector<DedupedRating> DedupShardRatings(std::vector<RatingSpill> spill) {
  std::sort(spill.begin(), spill.end(),
            [](const RatingSpill& a, const RatingSpill& b) {
              if (a.user != b.user) return a.user < b.user;
              if (a.item != b.item) return a.item < b.item;
              return a.ord < b.ord;
            });
  std::vector<DedupedRating> rows;
  rows.reserve(spill.size());
  for (size_t k = 0; k < spill.size();) {
    size_t run_end = k + 1;
    while (run_end < spill.size() && spill[run_end].user == spill[k].user &&
           spill[run_end].item == spill[k].item) {
      ++run_end;
    }
    rows.push_back({spill[k].user, spill[k].item, spill[run_end - 1].value,
                    spill[k].ord});
    k = run_end;
  }
  std::sort(rows.begin(), rows.end(),
            [](const DedupedRating& a, const DedupedRating& b) {
              if (a.user != b.user) return a.user < b.user;
              return a.seq < b.seq;
            });
  return rows;
}

}  // namespace

StatusOr<IngestStats> IngestTsvToShards(const std::string& ratings_path,
                                        const std::string& trust_path,
                                        const std::string& shard_dir,
                                        const IngestOptions& options) {
  if (options.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  const int64_t num_shards = options.num_shards;
  std::error_code ec;
  const std::string spill_dir = shard_dir + "/.ingest-spill";
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    return Status::Internal("cannot create spill directory " + spill_dir +
                            ": " + ec.message());
  }

  IngestStats stats;
  // The loader's row grammar and bad-row budget (data/tsv_loader.h), so
  // both entry points accept and reject exactly the same rows.
  BadRowBudget budget(options.max_bad_rows);

  // ---- Pass 1: stream ratings, intern ids, validate. ------------------
  std::unordered_map<int64_t, int64_t> user_ids;
  std::unordered_map<int64_t, int64_t> item_ids;
  Status scan = ForEachDelimitedRow(
      ratings_path, options.delimiter,
      [&](const DelimitedRow& row, int64_t offset) {
        RatingRow parsed;
        const Status status = ParseRatingRow(row, &parsed);
        if (!status.ok()) {
          return budget.Charge(ratings_path, row.line, offset, status);
        }
        user_ids.emplace(parsed.user, static_cast<int64_t>(user_ids.size()));
        item_ids.emplace(parsed.item, static_cast<int64_t>(item_ids.size()));
        ++stats.rating_rows;
        return Status::Ok();
      });
  if (!scan.ok()) return scan;
  const int64_t num_users = static_cast<int64_t>(user_ids.size());
  const int64_t num_items = static_cast<int64_t>(item_ids.size());

  // ---- Pass 2: spill trust + ratings into per-shard files. Routing a
  // row to its owner shard needs the final user count, hence the second
  // streaming pass over the ratings file.
  std::vector<std::ofstream> rating_spills;
  std::vector<std::ofstream> social_spills;
  for (int64_t s = 0; s < num_shards; ++s) {
    rating_spills.emplace_back(RatingSpillPath(spill_dir, s),
                               std::ios::binary | std::ios::trunc);
    social_spills.emplace_back(SocialSpillPath(spill_dir, s),
                               std::ios::binary | std::ios::trunc);
    if (!rating_spills.back().is_open() || !social_spills.back().is_open()) {
      return Status::Internal("cannot open spill files under " + spill_dir);
    }
  }
  auto spill = [](std::ofstream* out, const void* record, size_t bytes) {
    out->write(reinterpret_cast<const char*>(record),
               static_cast<std::streamsize>(bytes));
  };

  int64_t trust_ord = 0;
  scan = ForEachDelimitedRow(
      trust_path, options.delimiter,
      [&](const DelimitedRow& row, int64_t offset) {
        TrustRow parsed;
        const Status status = ParseTrustRow(row, &parsed);
        if (!status.ok()) {
          return budget.Charge(trust_path, row.line, offset, status);
        }
        ++stats.trust_rows;
        // Only links between users in the rating records; self-loops are
        // no-ops, exactly as UndirectedGraph::AddEdge treats them.
        auto ia = user_ids.find(parsed.a);
        auto ib = user_ids.find(parsed.b);
        if (ia == user_ids.end() || ib == user_ids.end() ||
            ia->second == ib->second) {
          return Status::Ok();
        }
        const int64_t a = ia->second;
        const int64_t b = ib->second;
        // Both directions get the same ordinal, so the per-owner min-ord
        // de-duplication below reproduces AddEdge's first-occurrence
        // insertion order on both endpoints.
        const SocialSpill forward{a, b, trust_ord};
        const SocialSpill backward{b, a, trust_ord};
        ++trust_ord;
        spill(&social_spills[static_cast<size_t>(
                  OwnerShard(a, num_users, num_shards))],
              &forward, sizeof(forward));
        spill(&social_spills[static_cast<size_t>(
                  OwnerShard(b, num_users, num_shards))],
              &backward, sizeof(backward));
        return Status::Ok();
      });
  if (!scan.ok()) return scan;

  int64_t rating_ord = 0;
  scan = ForEachDelimitedRow(
      ratings_path, options.delimiter,
      [&](const DelimitedRow& row, int64_t /*offset*/) {
        RatingRow parsed;
        if (!ParseRatingRow(row, &parsed).ok()) {
          // Pass 1 already charged the tolerance budget for this row.
          return Status::Ok();
        }
        const RatingSpill record{user_ids.at(parsed.user),
                                 item_ids.at(parsed.item), parsed.value,
                                 rating_ord};
        ++rating_ord;
        spill(&rating_spills[static_cast<size_t>(
                  OwnerShard(record.user, num_users, num_shards))],
              &record, sizeof(record));
        return Status::Ok();
      });
  if (!scan.ok()) return scan;
  for (auto& out : rating_spills) out.close();
  for (auto& out : social_spills) out.close();

  // ---- Finalize A: per-shard de-dup counts (the global rating total
  // goes into every shard header, so it must be known before any shard
  // is written), plus the co-rating records when the item graph is on.
  int64_t total_ratings = 0;
  std::vector<RaterRecord> item_records;  // ordered by seq below
  std::vector<int64_t> item_record_seqs;
  for (int64_t s = 0; s < num_shards; ++s) {
    auto spilled = ReadSpill<RatingSpill>(RatingSpillPath(spill_dir, s));
    if (!spilled.ok()) return spilled.status();
    const std::vector<DedupedRating> rows =
        DedupShardRatings(std::move(spilled).value());
    total_ratings += static_cast<int64_t>(rows.size());
    if (options.build_item_graph) {
      for (const DedupedRating& r : rows) {
        item_records.push_back({r.user, r.item});
        item_record_seqs.push_back(r.seq);
      }
    }
  }

  // The item graph is the one inherently global structure (see
  // IngestOptions::build_item_graph): sort the co-rating records back
  // into global first-occurrence order and build it in memory.
  UndirectedGraph item_graph(num_items);
  if (options.build_item_graph) {
    std::vector<size_t> by_seq(item_records.size());
    for (size_t k = 0; k < by_seq.size(); ++k) by_seq[k] = k;
    std::sort(by_seq.begin(), by_seq.end(), [&](size_t a, size_t b) {
      return item_record_seqs[a] < item_record_seqs[b];
    });
    std::vector<RaterRecord> ordered;
    ordered.reserve(item_records.size());
    for (size_t k : by_seq) ordered.push_back(item_records[k]);
    item_records.clear();
    item_records.shrink_to_fit();
    item_record_seqs.clear();
    item_record_seqs.shrink_to_fit();
    item_graph = BuildItemGraph(ordered, num_items);
  }

  // ---- Finalize B: build + write each shard (peak memory: one shard).
  std::filesystem::create_directories(shard_dir, ec);
  const ShardWriter writer(shard_dir);
  for (int64_t s = 0; s < num_shards; ++s) {
    ShardContents shard;
    shard.shard_index = s;
    shard.num_shards = num_shards;
    const ShardRange users = PartitionRange(num_users, num_shards, s);
    const ShardRange items = PartitionRange(num_items, num_shards, s);
    shard.user_begin = users.begin;
    shard.user_end = users.end;
    shard.item_begin = items.begin;
    shard.item_end = items.end;
    shard.num_users = num_users;
    shard.num_items = num_items;
    shard.total_ratings = total_ratings;
    shard.name = options.name;

    auto spilled = ReadSpill<RatingSpill>(RatingSpillPath(spill_dir, s));
    if (!spilled.ok()) return spilled.status();
    const std::vector<DedupedRating> rows =
        DedupShardRatings(std::move(spilled).value());
    shard.rating_offsets.assign(static_cast<size_t>(shard.owned_users() + 1),
                                0);
    for (const DedupedRating& r : rows) {
      ++shard.rating_offsets[static_cast<size_t>(r.user - users.begin + 1)];
      shard.rating_items.push_back(r.item);
      shard.rating_values.push_back(r.value);
      shard.rating_seqs.push_back(r.seq);
    }
    for (size_t u = 1; u < shard.rating_offsets.size(); ++u) {
      shard.rating_offsets[u] += shard.rating_offsets[u - 1];
    }

    auto social = ReadSpill<SocialSpill>(SocialSpillPath(spill_dir, s));
    if (!social.ok()) return social.status();
    std::vector<SocialSpill> edges = std::move(social).value();
    std::sort(edges.begin(), edges.end(),
              [](const SocialSpill& a, const SocialSpill& b) {
                if (a.owner != b.owner) return a.owner < b.owner;
                if (a.other != b.other) return a.other < b.other;
                return a.ord < b.ord;
              });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const SocialSpill& a, const SocialSpill& b) {
                              return a.owner == b.owner && a.other == b.other;
                            }),
                edges.end());
    std::sort(edges.begin(), edges.end(),
              [](const SocialSpill& a, const SocialSpill& b) {
                if (a.owner != b.owner) return a.owner < b.owner;
                return a.ord < b.ord;
              });
    shard.social_offsets.assign(static_cast<size_t>(shard.owned_users() + 1),
                                0);
    for (const SocialSpill& e : edges) {
      ++shard.social_offsets[static_cast<size_t>(e.owner - users.begin + 1)];
      shard.social_neighbors.push_back(e.other);
    }
    for (size_t u = 1; u < shard.social_offsets.size(); ++u) {
      shard.social_offsets[u] += shard.social_offsets[u - 1];
    }
    stats.social_edges += static_cast<int64_t>(edges.size());

    shard.item_offsets.assign(static_cast<size_t>(shard.owned_items() + 1),
                              0);
    for (int64_t i = items.begin; i < items.end; ++i) {
      const auto& neighbors = item_graph.Neighbors(i);
      shard.item_offsets[static_cast<size_t>(i - items.begin + 1)] =
          shard.item_offsets[static_cast<size_t>(i - items.begin)] +
          static_cast<int64_t>(neighbors.size());
      shard.item_neighbors.insert(shard.item_neighbors.end(),
                                  neighbors.begin(), neighbors.end());
    }

    auto path = writer.Write(shard);
    if (!path.ok()) return path.status();
    stats.shard_paths.push_back(std::move(path).value());
  }

  std::filesystem::remove_all(spill_dir, ec);
  stats.num_users = num_users;
  stats.num_items = num_items;
  stats.num_ratings = total_ratings;
  stats.bad_rows = budget.bad_rows();
  stats.social_edges /= 2;  // each undirected edge was counted per endpoint
  return stats;
}

}  // namespace scale
}  // namespace msopds
