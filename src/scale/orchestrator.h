#ifndef MSOPDS_SCALE_ORCHESTRATOR_H_
#define MSOPDS_SCALE_ORCHESTRATOR_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/checkpoint.h"
#include "util/status.h"

namespace msopds {
namespace scale {

/// Computes one sweep cell. Implementations must be deterministic in the
/// key: the crash-recovery contract is that re-running a cell on another
/// worker yields the same record (modulo CellRecord::worker_id).
using CellExecutor = std::function<CellRecord(const std::string& key)>;

/// Options for SweepOrchestrator.
struct OrchestratorOptions {
  /// Worker subprocesses. 0 is rejected by Run (use RunInline).
  int num_workers = 2;
  /// Directory holding per-worker segment files and the merged
  /// checkpoint. Created if missing; segments surviving a killed
  /// orchestrator are picked up on the next Run (resume).
  std::string work_dir;
  /// argv of the worker binary (argv[0] = executable path). The
  /// orchestrator appends --worker_id=<id> and --segment=<path>; the
  /// worker must then speak the stdin/stdout protocol of RunWorkerLoop.
  std::vector<std::string> worker_argv;
};

/// Outcome of one orchestrated sweep.
struct OrchestratorResult {
  int64_t cells_total = 0;
  int64_t cells_executed = 0;   // dispatched and completed this run
  int64_t cells_resumed = 0;    // found already done in surviving segments
  int64_t cells_redispatched = 0;
  int64_t worker_crashes = 0;
  int64_t workers_spawned = 0;
  /// The merged checkpoint (work_dir + "/sweep.ckpt"), one record per
  /// key in the caller's key order.
  std::string merged_path;
};

/// Farms sweep cells out to worker subprocesses with work-stealing
/// dispatch, per-worker JSONL segments, crash detection, and a
/// deterministic merge (DESIGN.md §17 "Sweep orchestrator"). Protocol:
///
///   orchestrator -> worker stdin :  "CELL <key>\n"
///   worker       -> its segment  :  CellRecordToJson(record) + "\n"  (flushed)
///   worker       -> orch. stdout :  "DONE <key>\n"
///
/// The segment append happens before DONE, so a worker SIGKILLed at any
/// instant loses at most the cell in flight; the orchestrator sees the
/// pipe hang up, requeues that cell at the front of the queue, and
/// spawns a replacement worker writing a *fresh* generation-suffixed
/// segment (segment-w<id>-g<gen>.jsonl) — never appending to a file
/// whose last line may be torn. A killed *orchestrator* resumes the same
/// way: the next Run scans surviving segments and only dispatches the
/// missing cells.
class SweepOrchestrator {
 public:
  explicit SweepOrchestrator(OrchestratorOptions options);

  /// Runs `keys` across subprocess workers and merges the segments.
  StatusOr<OrchestratorResult> Run(const std::vector<std::string>& keys);

  /// Single-process reference arm: executes the missing cells inline (as
  /// worker 0) and runs the identical merge. The merged checkpoint of
  /// Run and RunInline over the same deterministic executor are equal
  /// modulo worker_id — asserted by ctest -L scale.
  StatusOr<OrchestratorResult> RunInline(const std::vector<std::string>& keys,
                                         const CellExecutor& executor);

  /// Loads every segment under work_dir: the cells a Run or RunInline
  /// would resume, each with the path of its segment (the record's
  /// source_line is its row there).
  Status ScanSegments(
      std::vector<std::pair<std::string, CellRecord>>* records) const;

 private:
  /// Deterministic merge of all segment records into
  /// work_dir/sweep.ckpt, in `keys` order. Duplicates that agree modulo
  /// worker_id keep the smallest worker_id; disagreeing duplicates
  /// refuse the merge, naming the key and every conflicting worker id.
  StatusOr<std::string> MergeSegments(
      const std::vector<std::string>& keys) const;

  OrchestratorOptions options_;
};

/// Worker side of the protocol: reads "CELL <key>" lines from `in`,
/// executes each, appends the record to `segment`, answers "DONE <key>"
/// on `out`. Returns 0 on clean EOF (orchestrator closed stdin), 1 on a
/// malformed command. A paper bench started with --segment= runs this.
int RunWorkerLoop(std::istream& in, std::ostream& out,
                  CheckpointStore* segment, int worker_id,
                  const CellExecutor& executor);

}  // namespace scale
}  // namespace msopds

#endif  // MSOPDS_SCALE_ORCHESTRATOR_H_
