#ifndef MSOPDS_UTIL_CHECKPOINT_H_
#define MSOPDS_UTIL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace msopds {

/// One completed benchmark cell persisted to a checkpoint file. A cell is
/// either a valid metric pair (ok = true) or an explicit recorded failure
/// (ok = false with a human-readable error) — never a silent NaN.
struct CellRecord {
  /// Unique cell identity within one sweep, e.g. "ciao|MSOPDS|b=2".
  std::string key;
  bool ok = true;
  double mean_average_rating = 0.0;
  double mean_hit_rate = 0.0;
  int repeats = 0;
  /// Repeats whose victim training needed the recovery path but still
  /// produced finite metrics (diagnostics; does not fail the cell).
  int unhealthy_repeats = 0;
  /// Kernel thread count the cell ran at. Results are bit-identical at
  /// any thread count (the parallel runtime's determinism contract), but
  /// timings are not, so resumed sweeps refuse to mix thread counts.
  /// Records written before this field existed parse as 1.
  int threads = 1;
  /// Sweep-orchestrator worker that produced the cell (0 = the
  /// single-process driver). Diagnostics only — merged sweeps compare
  /// records modulo this field. Records written before it existed parse
  /// as 0, mirroring the `threads` precedent above.
  int worker_id = 0;
  /// Failure description when !ok.
  std::string error;
  /// 1-based line number this record was loaded from (0 for records that
  /// never round-tripped through a file). Not serialized; populated by
  /// CheckpointStore so resume-refusal diagnostics can point at the
  /// offending row of the offending file.
  int64_t source_line = 0;
};

/// Serializes one record as a single-line JSON object (no newline).
/// source_line is bookkeeping, not schema, and is not written.
std::string CellRecordToJson(const CellRecord& record);

/// Parses a line produced by CellRecordToJson. Understands the writer's
/// "nan"/"inf"/"-inf" string encoding for non-finite metrics. Returns
/// InvalidArgument on malformed input; when `context` is non-empty
/// (e.g. "bench.ckpt:12", the source path and row) it prefixes the error
/// message so the operator can open the offending line directly.
StatusOr<CellRecord> ParseCellRecord(const std::string& line,
                                     const std::string& context = "");

/// Append-only JSONL checkpoint store: one sweep segment or a merged
/// sweep checkpoint. Construction loads any existing records from `path`
/// (missing file = empty store; a torn trailing line from a crash
/// mid-write is dropped with a warning). Append() writes one line and
/// flushes, so a killed process loses at most the cell in flight.
/// Duplicate keys keep the last record.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string path);

  /// All records in insertion order (duplicates already collapsed to the
  /// last write). The orchestrator's segment merge iterates this.
  const std::vector<CellRecord>& records() const { return records_; }

  /// Records one completed cell and appends it to the file.
  void Append(const CellRecord& record);

 private:
  std::string path_;
  std::vector<CellRecord> records_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace msopds

#endif  // MSOPDS_UTIL_CHECKPOINT_H_
