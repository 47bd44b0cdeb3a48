#include "data/tsv_loader.h"

#include <unordered_map>

#include "graph/item_graph_builder.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace msopds {
namespace {

int64_t Intern(std::unordered_map<int64_t, int64_t>* table, int64_t raw) {
  auto [it, inserted] =
      table->emplace(raw, static_cast<int64_t>(table->size()));
  (void)inserted;
  return it->second;
}

}  // namespace

Status ParseRatingRow(const DelimitedRow& row, RatingRow* out) {
  if (row.fields.size() < 3) {
    return Status::InvalidArgument("ratings row needs 3 fields");
  }
  if (!ParseInt64(row.fields[0], &out->user) ||
      !ParseInt64(row.fields[1], &out->item) ||
      !ParseDouble(row.fields[2], &out->value)) {
    return Status::InvalidArgument("malformed ratings row");
  }
  if (!(out->value >= kMinRating && out->value <= kMaxRating)) {
    return Status::OutOfRange(
        StrFormat("rating %.3f outside [1,5]", out->value));
  }
  return Status::Ok();
}

Status ParseTrustRow(const DelimitedRow& row, TrustRow* out) {
  if (row.fields.size() < 2) {
    return Status::InvalidArgument("trust row needs 2 fields");
  }
  if (!ParseInt64(row.fields[0], &out->a) ||
      !ParseInt64(row.fields[1], &out->b)) {
    return Status::InvalidArgument("malformed trust row");
  }
  return Status::Ok();
}

Status BadRowBudget::Charge(const std::string& path, int64_t line,
                            int64_t offset, const Status& error) {
  ++bad_rows_;
  if (bad_rows_ <= max_bad_rows_) {
    MSOPDS_LOG(Warning) << path << ":" << line << " (byte " << offset
                        << "): " << error.message() << " (skipped; bad row "
                        << bad_rows_ << "/" << max_bad_rows_ << " tolerated)";
    return Status::Ok();
  }
  return Status(error.code(),
                StrFormat("%s:%lld (byte %lld): %s", path.c_str(),
                          static_cast<long long>(line),
                          static_cast<long long>(offset),
                          error.message().c_str()));
}

StatusOr<Dataset> LoadTsv(const std::string& ratings_path,
                          const std::string& trust_path,
                          const TsvOptions& options) {
  // Both files are streamed line-at-a-time (ForEachDelimitedRow), so the
  // loader's peak memory is the interned tables plus one line — it never
  // materializes a whole file. Errors carry the byte offset of the line
  // alongside path:line so huge inputs can be seeked directly.
  BadRowBudget budget(options.max_bad_rows);

  std::unordered_map<int64_t, int64_t> user_ids;
  std::unordered_map<int64_t, int64_t> item_ids;
  // Last-write-wins de-duplication of (user, item).
  std::unordered_map<uint64_t, double> values;
  std::vector<uint64_t> order;

  Status scan = ForEachDelimitedRow(
      ratings_path, options.delimiter,
      [&](const DelimitedRow& row, int64_t offset) {
        RatingRow parsed;
        const Status status = ParseRatingRow(row, &parsed);
        if (!status.ok()) {
          return budget.Charge(ratings_path, row.line, offset, status);
        }
        const int64_t user = Intern(&user_ids, parsed.user);
        const int64_t item = Intern(&item_ids, parsed.item);
        const uint64_t key =
            (static_cast<uint64_t>(user) << 32) | static_cast<uint64_t>(item);
        if (values.emplace(key, parsed.value).second) {
          order.push_back(key);
        } else {
          values[key] = parsed.value;
        }
        return Status::Ok();
      });
  if (!scan.ok()) return scan;

  Dataset dataset;
  dataset.name = options.name;
  dataset.num_users = static_cast<int64_t>(user_ids.size());
  dataset.num_items = static_cast<int64_t>(item_ids.size());
  dataset.social = UndirectedGraph(dataset.num_users);
  for (uint64_t key : order) {
    dataset.ratings.push_back({static_cast<int64_t>(key >> 32),
                               static_cast<int64_t>(key & 0xffffffffULL),
                               values.at(key)});
  }

  scan = ForEachDelimitedRow(
      trust_path, options.delimiter,
      [&](const DelimitedRow& row, int64_t offset) {
        TrustRow parsed;
        const Status status = ParseTrustRow(row, &parsed);
        if (!status.ok()) {
          return budget.Charge(trust_path, row.line, offset, status);
        }
        // Only keep links between users that appear in the rating records.
        auto ia = user_ids.find(parsed.a);
        auto ib = user_ids.find(parsed.b);
        if (ia != user_ids.end() && ib != user_ids.end()) {
          dataset.social.AddEdge(ia->second, ib->second);
        }
        return Status::Ok();
      });
  if (!scan.ok()) return scan;

  std::vector<RaterRecord> records;
  records.reserve(dataset.ratings.size());
  for (const Rating& r : dataset.ratings) records.push_back({r.user, r.item});
  dataset.items = BuildItemGraph(records, dataset.num_items);

  const Status status = dataset.Validate();
  if (!status.ok()) return status;
  return dataset;
}

StatusOr<Dataset> LoadTsv(const std::string& ratings_path,
                          const std::string& trust_path, char delimiter,
                          const std::string& name) {
  TsvOptions options;
  options.delimiter = delimiter;
  options.name = name;
  return LoadTsv(ratings_path, trust_path, options);
}

Status SaveTsv(const Dataset& dataset, const std::string& ratings_path,
               const std::string& trust_path, char delimiter) {
  std::vector<std::vector<std::string>> rating_rows;
  rating_rows.reserve(dataset.ratings.size());
  for (const Rating& r : dataset.ratings) {
    rating_rows.push_back({StrFormat("%lld", static_cast<long long>(r.user)),
                           StrFormat("%lld", static_cast<long long>(r.item)),
                           StrFormat("%.0f", r.value)});
  }
  Status status = WriteDelimited(ratings_path, rating_rows, delimiter);
  if (!status.ok()) return status;

  std::vector<std::vector<std::string>> trust_rows;
  for (const auto& [a, b] : dataset.social.Edges()) {
    trust_rows.push_back({StrFormat("%lld", static_cast<long long>(a)),
                          StrFormat("%lld", static_cast<long long>(b))});
  }
  return WriteDelimited(trust_path, trust_rows, delimiter);
}

}  // namespace msopds
