#ifndef MSOPDS_DATA_TSV_LOADER_H_
#define MSOPDS_DATA_TSV_LOADER_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "util/csv.h"
#include "util/status.h"

namespace msopds {

/// Options for LoadTsv.
struct TsvOptions {
  char delimiter = '\t';
  std::string name = "tsv";
  /// Malformed rows (wrong field count, unparsable numbers, out-of-range
  /// ratings) tolerated across both files before the load fails. Each
  /// skipped row is logged with its "path:line" location. 0 = strict:
  /// the first bad row fails the load (the default, and the historical
  /// behaviour).
  int max_bad_rows = 0;
};

/// Loads a real heterogeneous dataset from two delimiter-separated files:
///  - ratings: lines of "user item rating" (rating in [1, 5]);
///  - trust:   lines of "user user" social links.
/// Raw ids are compacted to dense [0, n) indices; duplicate (user, item)
/// pairs keep the last value; the item graph is built from co-rating
/// overlap exactly as in GenerateSynthetic. This is the path for running
/// the suite on the actual Ciao/Epinions/LibraryThing dumps when they are
/// available (they are not bundled). Errors are reported as
/// "path:line: reason"; real dumps with a few corrupt lines can be
/// loaded by raising options.max_bad_rows.
StatusOr<Dataset> LoadTsv(const std::string& ratings_path,
                          const std::string& trust_path,
                          const TsvOptions& options);

/// Legacy convenience overload (strict: any bad row fails the load).
StatusOr<Dataset> LoadTsv(const std::string& ratings_path,
                          const std::string& trust_path, char delimiter = '\t',
                          const std::string& name = "tsv");

// --- Row grammar -----------------------------------------------------------
//
// LoadTsv and scale::IngestTsvToShards accept exactly the same inputs and
// report the same Status for every bad row, because both parse through
// these functions and charge failures to one BadRowBudget.

/// A ratings row "user item rating" with raw (not yet interned) ids.
struct RatingRow {
  int64_t user = 0;
  int64_t item = 0;
  double value = 0.0;
};

/// A trust row "user user" with raw ids.
struct TrustRow {
  int64_t a = 0;
  int64_t b = 0;
};

/// Parses one ratings row. A short or unparsable row is InvalidArgument;
/// a rating outside [1, 5] (NaN included) is OutOfRange. The message is
/// the bare reason; BadRowBudget::Charge adds the source location.
Status ParseRatingRow(const DelimitedRow& row, RatingRow* out);

/// Parses one trust row. A short or unparsable row is InvalidArgument.
Status ParseTrustRow(const DelimitedRow& row, TrustRow* out);

/// Bad-row tolerance shared across both files of one load.
class BadRowBudget {
 public:
  explicit BadRowBudget(int max_bad_rows) : max_bad_rows_(max_bad_rows) {}

  /// Charges one failed row (`error`, from a Parse*Row call on line
  /// `line` of `path`, starting `offset` bytes in). While the budget
  /// lasts the row is logged with its location and Ok is returned, so
  /// the caller skips it; the row that exhausts the budget returns
  /// `error`'s code with the message "path:line (byte offset): reason".
  Status Charge(const std::string& path, int64_t line, int64_t offset,
                const Status& error);

  int bad_rows() const { return bad_rows_; }

 private:
  int max_bad_rows_;
  int bad_rows_ = 0;
};

/// Writes a dataset back to the same two-file format (for round-trips and
/// for exporting synthetic datasets).
Status SaveTsv(const Dataset& dataset, const std::string& ratings_path,
               const std::string& trust_path, char delimiter = '\t');

}  // namespace msopds

#endif  // MSOPDS_DATA_TSV_LOADER_H_
