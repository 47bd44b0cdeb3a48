#include "scale/orchestrator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/checkpoint.h"
#include "util/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

namespace msopds {
namespace scale {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// Serialized record with the per-run provenance (worker id, source row)
/// zeroed — the form in which multi-process and single-process sweeps
/// must agree.
std::string Normalized(const CellRecord& record) {
  CellRecord copy = record;
  copy.worker_id = 0;
  copy.source_line = 0;
  return CellRecordToJson(copy);
}

std::vector<CellRecord> LoadMerged(const std::string& work_dir) {
  CheckpointStore store(work_dir + "/sweep.ckpt");
  return store.records();
}

CellRecord ToyRecord(const std::string& key, double rbar, int worker_id) {
  CellRecord record;
  record.key = key;
  record.mean_average_rating = rbar;
  record.mean_hit_rate = 0.5;
  record.repeats = 1;
  record.worker_id = worker_id;
  return record;
}

/// Deterministic executor for the in-process tests (the subprocess tests
/// run the table3 paper bench instead).
CellRecord DeterministicCell(const std::string& key) {
  double rbar = 0.0;
  for (char c : key) rbar += static_cast<double>(c);
  return ToyRecord(key, rbar, 0);
}

std::vector<std::string> Keys(int n) {
  std::vector<std::string> keys;
  for (int k = 0; k < n; ++k) keys.push_back(StrFormat("cell-%03d", k));
  return keys;
}

TEST(WorkerLoopTest, ExecutesCellsAppendsSegmentAndAcks) {
  const std::string path = FreshDir("worker_loop") + "/segment.jsonl";
  std::istringstream in("CELL cell-000\nCELL cell-001\n");
  std::ostringstream out;
  {
    CheckpointStore segment(path);
    const int status = RunWorkerLoop(in, out, &segment, /*worker_id=*/7,
                                     DeterministicCell);
    EXPECT_EQ(status, 0);
  }
  EXPECT_EQ(out.str(), "DONE cell-000\nDONE cell-001\n");
  const std::vector<CellRecord> records = CheckpointStore(path).records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "cell-000");
  EXPECT_EQ(records[0].worker_id, 7);
  EXPECT_EQ(records[1].key, "cell-001");
  EXPECT_EQ(records[1].worker_id, 7);
}

TEST(WorkerLoopTest, MalformedCommandFails) {
  std::istringstream in("NOPE cell-000\n");
  std::ostringstream out;
  CheckpointStore segment(FreshDir("worker_loop_bad") + "/segment.jsonl");
  EXPECT_EQ(RunWorkerLoop(in, out, &segment, 1, DeterministicCell), 1);
}

TEST(RunInlineTest, ResumesCompletedCellsFromSurvivingSegments) {
  const std::string work_dir = FreshDir("orch_resume");
  OrchestratorOptions options;
  options.work_dir = work_dir;
  SweepOrchestrator orchestrator(options);

  int calls = 0;
  const CellExecutor counting = [&](const std::string& key) {
    ++calls;
    return DeterministicCell(key);
  };

  auto first = orchestrator.RunInline(Keys(3), counting);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().cells_executed, 3);
  EXPECT_EQ(first.value().cells_resumed, 0);
  EXPECT_EQ(calls, 3);

  // Second run over a superset: only the new cell executes.
  auto second = orchestrator.RunInline(Keys(4), counting);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().cells_resumed, 3);
  EXPECT_EQ(second.value().cells_executed, 1);
  EXPECT_EQ(calls, 4);

  const std::vector<CellRecord> merged = LoadMerged(work_dir);
  ASSERT_EQ(merged.size(), 4u);
  for (size_t k = 0; k < merged.size(); ++k) {
    EXPECT_EQ(merged[k].key, Keys(4)[k]);  // caller key order
  }
}

TEST(MergeTest, ConflictingDuplicatesRefuseAndNameWorkers) {
  const std::string work_dir = FreshDir("orch_conflict");
  // Two surviving segments disagree on cell-000: a non-deterministic
  // executor (or a stale work_dir). The merge must refuse, naming the
  // cell and both worker ids, rather than silently picking one.
  {
    CheckpointStore w1(work_dir + "/segment-w1-g0.jsonl");
    w1.Append(ToyRecord("cell-000", 1.0, 1));
  }
  {
    CheckpointStore w2(work_dir + "/segment-w2-g0.jsonl");
    w2.Append(ToyRecord("cell-000", 2.0, 2));
  }
  OrchestratorOptions options;
  options.work_dir = work_dir;
  SweepOrchestrator orchestrator(options);
  auto result = orchestrator.RunInline({"cell-000"}, DeterministicCell);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  const std::string message(result.status().message());
  EXPECT_NE(message.find("refusing to merge"), std::string::npos) << message;
  EXPECT_NE(message.find("cell-000"), std::string::npos) << message;
  EXPECT_NE(message.find("1, 2"), std::string::npos) << message;
}

TEST(MergeTest, AgreeingDuplicatesKeepSmallestWorkerId) {
  const std::string work_dir = FreshDir("orch_agree");
  // The same cell finished on two workers (a re-dispatch where the
  // original worker had in fact persisted before dying). Identical
  // payloads: keep one, attributed to the smallest worker id.
  {
    CheckpointStore w3(work_dir + "/segment-w3-g0.jsonl");
    w3.Append(ToyRecord("cell-000", 4.0, 3));
  }
  {
    CheckpointStore w1(work_dir + "/segment-w1-g1.jsonl");
    w1.Append(ToyRecord("cell-000", 4.0, 1));
  }
  OrchestratorOptions options;
  options.work_dir = work_dir;
  SweepOrchestrator orchestrator(options);
  auto result = orchestrator.RunInline({"cell-000"}, DeterministicCell);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().cells_resumed, 1);
  const std::vector<CellRecord> merged = LoadMerged(work_dir);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].worker_id, 1);
}

#if defined(__unix__) || defined(__APPLE__)

/// Runs the shell `command` with its stdout and stderr written to
/// `out_dir`/stdout.txt and stderr.txt. Returns the exit status.
int RunCommand(const std::string& command, const std::string& out_dir) {
  const std::string redirected = command + " > " + out_dir +
                                 "/stdout.txt 2> " + out_dir + "/stderr.txt";
  const int status = std::system(redirected.c_str());  // NOLINT
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A tiny Table III sweep (ciao at scale 0.02, 3 methods x 2 budgets, one
/// repeat, one kernel thread) run by the table3 paper bench; a flag in
/// `extra_flags` overrides the same flag of the sweep. Returns the exit
/// status.
int RunTable3(const std::string& work_dir, const std::string& out_dir,
              const std::string& extra_flags) {
  return RunCommand(std::string(MSOPDS_TABLE3_BENCH_PATH) +
                        " --datasets=ciao --scale=0.02 --budgets=2,3"
                        " --methods=None,Random,PGA --repeats=1 --threads=1"
                        " --checkpoint=" + work_dir + " " + extra_flags,
                    out_dir);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void ExpectSameRowsModuloWorker(const std::vector<CellRecord>& reference,
                                const std::vector<CellRecord>& actual) {
  ASSERT_EQ(reference.size(), actual.size());
  for (size_t k = 0; k < reference.size(); ++k) {
    EXPECT_EQ(Normalized(reference[k]), Normalized(actual[k]))
        << "row " << k << " differs";
  }
}

/// One sweep at --workers=0 and one at `workers_flags` (both with
/// `common` flags): same merged checkpoint modulo worker id, same table.
void ExpectWorkersMatchInline(const std::string& name,
                              const std::string& common,
                              const std::string& workers_flags) {
  const std::string inline_dir = FreshDir(name + "_inline");
  const std::string workers_dir = FreshDir(name + "_workers");
  ASSERT_EQ(RunTable3(inline_dir + "/ckpt", inline_dir,
                      common + " --workers=0"),
            0)
      << ReadFile(inline_dir + "/stderr.txt");
  ASSERT_EQ(RunTable3(workers_dir + "/ckpt", workers_dir,
                      common + " " + workers_flags),
            0)
      << ReadFile(workers_dir + "/stderr.txt");

  const std::vector<CellRecord> inline_rows = LoadMerged(inline_dir + "/ckpt");
  const std::vector<CellRecord> worker_rows =
      LoadMerged(workers_dir + "/ckpt");
  ASSERT_EQ(inline_rows.size(), 6u);
  ExpectSameRowsModuloWorker(inline_rows, worker_rows);
  for (const CellRecord& row : inline_rows) EXPECT_EQ(row.worker_id, 0);
  for (const CellRecord& row : worker_rows) EXPECT_GE(row.worker_id, 1);
  EXPECT_EQ(ReadFile(inline_dir + "/stdout.txt"),
            ReadFile(workers_dir + "/stdout.txt"));
}

TEST(PaperSweepTest, MultiprocessMatchesInlineModuloWorkerId) {
  ExpectWorkersMatchInline("paper", "", "--workers=2");
}

TEST(PaperSweepTest, FaultDrillMatchesAcrossWorkerCounts) {
  // Each cell reseeds the fault streams from its key, so the injected
  // faults do not depend on which worker ran the cell or what it ran
  // before.
  ExpectWorkersMatchInline("paper_faults", "--fault_nan=0.05 --fault_seed=3",
                           "--workers=2");
}

TEST(PaperSweepTest, SurvivesCrashedWorkerAndStillMatchesInline) {
  // One worker dies before persisting its second cell; the orchestrator
  // must detect the hangup, re-dispatch the lost cell, and finish with
  // the same merged checkpoint. The marker in the work directory lets
  // only one process take the crash.
  ExpectWorkersMatchInline("paper_crash", "",
                           "--workers=2 --fault_crash_cell=1");
  EXPECT_TRUE(std::filesystem::exists(
      testing::TempDir() + "/paper_crash_workers/ckpt/crash.marker"))
      << "the crash drill never fired";
}

TEST(PaperSweepTest, MasterResumesAfterItselfBeingRerun) {
  const std::string dir = FreshDir("paper_rerun");
  ASSERT_EQ(RunTable3(dir + "/ckpt", dir, "--workers=2"), 0)
      << ReadFile(dir + "/stderr.txt");
  const std::vector<CellRecord> first = LoadMerged(dir + "/ckpt");
  const std::string first_table = ReadFile(dir + "/stdout.txt");
  ASSERT_EQ(first.size(), 6u);
  ASSERT_EQ(RunTable3(dir + "/ckpt", dir, "--workers=2"), 0)
      << ReadFile(dir + "/stderr.txt");
  EXPECT_NE(ReadFile(dir + "/stderr.txt")
                .find("6 completed cell(s) skipped"),
            std::string::npos)
      << ReadFile(dir + "/stderr.txt");
  ExpectSameRowsModuloWorker(first, LoadMerged(dir + "/ckpt"));
  EXPECT_EQ(first_table, ReadFile(dir + "/stdout.txt"));
}

TEST(PaperSweepTest, RefusesToResumeCellsRecordedAtAnotherThreadCount) {
  const std::string dir = FreshDir("paper_threads");
  ASSERT_EQ(RunTable3(dir + "/ckpt", dir, ""), 0)
      << ReadFile(dir + "/stderr.txt");
  // The later --threads=2 overrides the sweep's --threads=1.
  EXPECT_EQ(RunTable3(dir + "/ckpt", dir, "--threads=2"), 2);
  const std::string message = ReadFile(dir + "/stderr.txt");
  EXPECT_NE(message.find("/ckpt/segment-w0-g0.jsonl:1: cell "
                         "'ciao|None|b=2' was recorded at 1 thread(s) by "
                         "worker 0 but this run uses 2"),
            std::string::npos)
      << message;
}

TEST(PaperSweepTest, UnknownMethodOrDatasetExitsTwoBeforeAnyCell) {
  const struct {
    const char* flag;
    const char* message;
  } cases[] = {
      {"--methods=None,Bogus",
       "unknown attack method 'Bogus'; accepted: None, Random, Popular, "},
      {"--datasets=ciao,nowhere",
       "unknown dataset profile 'nowhere'; accepted: ciao, epinions, "
       "librarything"},
  };
  for (const auto& bad : cases) {
    for (const char* workers : {"--workers=0", "--workers=2"}) {
      SCOPED_TRACE(std::string(bad.flag) + " " + workers);
      const std::string dir = FreshDir("paper_bad_name");
      EXPECT_EQ(RunTable3(dir + "/ckpt", dir,
                          std::string(bad.flag) + " " + workers),
                2);
      EXPECT_NE(ReadFile(dir + "/stderr.txt").find(bad.message),
                std::string::npos)
          << ReadFile(dir + "/stderr.txt");
      // Nothing ran: no title, no work directory.
      EXPECT_EQ(ReadFile(dir + "/stdout.txt"), "");
      EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt"));
    }
  }
}

TEST(PaperSweepTest, WorkerRecordsKeysOutsideTheSweepAsFailures) {
  // Keys arrive on the worker's stdin; one naming a dataset or method
  // outside the sweep's flags must become a recorded failure, never
  // reach the library's name CHECKs.
  const std::string dir = FreshDir("paper_worker_keys");
  const std::string segment = dir + "/segment-w1-g0.jsonl";
  ASSERT_EQ(RunCommand("printf 'CELL nowhere|None|b=2\\nCELL "
                       "ciao|Bogus|b=2\\n' | " +
                           std::string(MSOPDS_TABLE3_BENCH_PATH) +
                           " --datasets=ciao --scale=0.02 --budgets=2"
                           " --methods=None --repeats=1 --threads=1"
                           " --worker_id=1 --segment=" + segment,
                       dir),
            0)
      << ReadFile(dir + "/stderr.txt");
  EXPECT_EQ(ReadFile(dir + "/stdout.txt"),
            "DONE nowhere|None|b=2\nDONE ciao|Bogus|b=2\n");
  const std::vector<CellRecord> records = CheckpointStore(segment).records();
  ASSERT_EQ(records.size(), 2u);
  for (const CellRecord& record : records) {
    EXPECT_FALSE(record.ok) << record.key;
    EXPECT_EQ(record.error, "not a cell of this sweep") << record.key;
  }
}

TEST(ExtModerationTest, RefusesFlagsItDoesNotUseAndUnknownNames) {
  const std::string dir = FreshDir("ext_moderation_flags");
  const std::string bench = MSOPDS_EXT_MODERATION_BENCH_PATH;
  EXPECT_EQ(RunCommand(bench +
                           " --datasets=ciao --scale=0.02 --repeats=1"
                           " --methods=Random --workers=4 --fault_nan=1.0"
                           " --budgets=2 --threads=3",
                       dir),
            2);
  EXPECT_NE(ReadFile(dir + "/stderr.txt")
                .find("ext_moderation does not take --workers"),
            std::string::npos)
      << ReadFile(dir + "/stderr.txt");
  EXPECT_EQ(ReadFile(dir + "/stdout.txt"), "");

  EXPECT_EQ(RunCommand(bench +
                           " --datasets=ciao --scale=0.02 --repeats=1"
                           " --methods=Bogus",
                       dir),
            2);
  EXPECT_NE(ReadFile(dir + "/stderr.txt")
                .find("unknown attack method 'Bogus'; accepted: "),
            std::string::npos)
      << ReadFile(dir + "/stderr.txt");
  EXPECT_EQ(ReadFile(dir + "/stdout.txt"), "");
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace scale
}  // namespace msopds
