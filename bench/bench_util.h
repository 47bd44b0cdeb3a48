#ifndef MSOPDS_BENCH_BENCH_UTIL_H_
#define MSOPDS_BENCH_BENCH_UTIL_H_

// Shared flag declarations, table formatting and the one sweep driver of
// the paper benches (table3, fig6-fig9). Every table/figure binary
// accepts (util/flags; a malformed or out-of-range value exits 2, naming
// the flag):
//   --scale=F      synthetic dataset scale in [0.002, 100] (default 0.12;
//                  paper size = 1.0)
//   --repeats=N    games averaged per cell, >= 1 (default per bench)
//   --seed=N       base RNG seed (default 7)
//   --datasets=a,b comma list from {ciao, epinions, librarything}
//   --budgets=2,3  attacker budget levels b, each in [1, 100]
//   --opponents=1,2 opponent counts (fig6) / opponent budgets (fig7),
//                  each in [1, 100]
//   --methods=a,b  override the method list
//   --threads=N    kernel thread count in [0, 256] (0 = MSOPDS_THREADS /
//                  hardware); metrics are bit-identical at any N, timings
//                  are not
//   --workers=N    run the cells in N worker processes (re-executions of
//                  the bench), N in [0, 256]; 0, the default, runs them
//                  in this process. The tables are the same at any N
//
// Resilience-runtime flags (see DESIGN.md "Resilience runtime"):
//   --checkpoint=DIR        sweep work directory (per-worker segments and
//                           the merged sweep.ckpt); rerunning the same
//                           command skips the cells already recorded
//                           there. Default: a temporary directory
//   --fault_nan=P           inject NaNs into trainer + surrogate gradient
//                           steps with probability P in [0, 1] per step
//   --fault_cg=P            simulated CG operator breakdown probability
//                           in [0, 1]
//   --fault_seed=N          seed of the fault streams; each cell draws
//                           from streams seeded by (N, its key)
//   --fault_crash_cell=N    simulate a crash (exit 42) of the process that
//                           executes cells: after N executed cells, before
//                           it persists the next; once per --checkpoint
//                           directory
//
// The sweep orchestrator appends --worker_id=N and --segment=PATH when it
// starts a bench as a worker.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "data/synthetic.h"
#include "scale/orchestrator.h"
#include "serve/engine.h"
#include "tensor/simd.h"
#include "util/arena.h"
#include "util/checkpoint.h"
#include "util/determinism_lint.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace msopds {

/// Writes a JSON document (plus trailing newline) to `path`, creating
/// missing parent directories first — "--json_out=out/run1/x.json" must
/// produce the file, not silently skip it. Returns false (with a stderr
/// diagnostic) when the directory or file cannot be created.
inline bool WriteJsonFile(const std::string& path,
                          const std::string& payload) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "cannot create directory %s: %s\n",
                   target.parent_path().string().c_str(),
                   ec.message().c_str());
      return false;
    }
  }
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << payload << '\n';
  return out.good();
}

/// Process-lifetime peak resident set in bytes (VmHWM from
/// /proc/self/status, reported by the kernel in kB). Returns 0 where
/// procfs is unavailable — the portable fallback — so callers must treat
/// 0 as "unknown", never as "tiny".
inline int64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

/// Resets the kernel's peak-RSS watermark (Linux: "5" into
/// /proc/self/clear_refs) so a bench can attribute peaks to phases —
/// scale_bench splits ingest from training this way. Returns false where
/// the platform does not support it; callers then report one
/// whole-process peak instead of per-phase peaks.
inline bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs.is_open()) return false;
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

/// Point-in-time memory snapshot: process peak RSS (PeakRssBytes; 0
/// where procfs is unavailable) plus the tensor arena's counters.
/// Sample() at the end of a bench to report how much memory the run
/// actually touched alongside the arena's own accounting of live /
/// cached / high-water tape bytes.
struct MemStats {
  int64_t peak_rss_kb = 0;
  ArenaStats arena;

  static MemStats Sample() {
    MemStats stats;
    stats.arena = Arena::Global().stats();
    stats.peak_rss_kb = PeakRssBytes() / 1024;
    return stats;
  }
};

/// One BENCH_scale.json row: synthetic dataset size × shard count, with
/// the ingest and training phases' wall time and peak RSS reported
/// separately (each phase runs in its own process).
struct ScaleRowStats {
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_ratings = 0;
  /// Shards the dataset was ingested into; 1 is the in-memory case.
  int64_t num_shards = 0;
  double ingest_seconds = 0.0;
  double train_seconds = 0.0;
  int64_t ingest_peak_rss_bytes = 0;
  int64_t train_peak_rss_bytes = 0;
  /// Largest single shard file; the out-of-core working-set bound.
  int64_t peak_shard_bytes = 0;
  double final_loss = 0.0;
};

/// Emits one scale-trajectory row into the current JSON object. Call
/// between Key/Value pairs of an open object, like WriteRobustnessFields.
inline void WriteScaleFields(JsonWriter* json, const ScaleRowStats& row) {
  json->Key("users").Int(row.num_users);
  json->Key("items").Int(row.num_items);
  json->Key("ratings").Int(row.num_ratings);
  json->Key("shards").Int(row.num_shards);
  json->Key("ingest_seconds").Double(row.ingest_seconds);
  json->Key("train_seconds").Double(row.train_seconds);
  json->Key("ingest_peak_rss_bytes").Int(row.ingest_peak_rss_bytes);
  json->Key("train_peak_rss_bytes").Int(row.train_peak_rss_bytes);
  json->Key("peak_shard_bytes").Int(row.peak_shard_bytes);
  json->Key("final_loss").Double(row.final_loss);
}

/// Static-analysis posture the bench numbers were produced under: the
/// determinism linter's counts over the source tree this binary was
/// built from (DESIGN.md §13), and whether the Clang thread-safety
/// annotations were active in this build. Benches record it in their
/// JSON headers the same way they record thread counts and fault
/// plans, so a result file carries the hygiene of its build.
struct StaticCheckStats {
  /// False when the build does not know its source root (or the tree
  /// moved): the lint_* fields are then meaningless zeros.
  bool sampled = false;
  int64_t lint_files = 0;
  int64_t lint_checks = 0;
  int64_t lint_findings = 0;
  /// True when util/sync.h's annotations expand to real Clang
  /// attributes in this translation unit (Clang builds), i.e. a
  /// -Wthread-safety pass over this build would be enforceable.
  bool thread_safety_annotations = false;

  static StaticCheckStats Sample() {
    StaticCheckStats stats;
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
    stats.thread_safety_annotations = true;
#endif
#endif
#ifdef MSOPDS_SOURCE_ROOT
    const std::filesystem::path src =
        std::filesystem::path(MSOPDS_SOURCE_ROOT) / "src";
    std::error_code ec;
    if (std::filesystem::is_directory(src, ec)) {
      const LintReport report = RunDeterminismLint(src.string());
      stats.sampled = true;
      stats.lint_files = report.files_scanned;
      stats.lint_checks = report.checks_run;
      stats.lint_findings = static_cast<int64_t>(report.findings.size());
    }
#endif
    return stats;
  }
};

/// Emits one "static_checks" object into the current JSON object.
/// Call between Key/Value pairs of an open object, like
/// WriteRobustnessFields.
inline void WriteStaticChecksFields(JsonWriter* json,
                                    const StaticCheckStats& stats) {
  json->Key("static_checks").BeginObject();
  json->Key("sampled").Bool(stats.sampled);
  json->Key("lint_files").Int(stats.lint_files);
  json->Key("lint_checks").Int(stats.lint_checks);
  json->Key("lint_findings").Int(stats.lint_findings);
  json->Key("lint_clean").Bool(stats.sampled && stats.lint_findings == 0);
  json->Key("thread_safety_annotations").Bool(stats.thread_safety_annotations);
  json->EndObject();
}

/// The "model name" line of /proc/cpuinfo, or "unknown" where there is
/// none (non-Linux hosts, some ARM kernels).
inline std::string CpuModelName() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const size_t begin = line.find_first_not_of(' ', colon + 1);
    if (begin != std::string::npos) return line.substr(begin);
  }
  return "unknown";
}

/// Emits what a committed bench file was measured on into the current
/// JSON object: the probed SIMD backend and whether it is a vector one,
/// the online CPU count, the CPU model, the compiler and the CMake build
/// type. The commit that lands a regenerated file is its provenance.
/// Call between Key/Value pairs of an open object.
inline void WriteMachineFields(JsonWriter* json) {
  json->Key("backend").String(simd::BackendName());
  json->Key("vector_active").Bool(simd::VectorActive());
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  json->Key("nproc").Int(static_cast<int64_t>(nproc));
  json->Key("cpu_model").String(CpuModelName());
#if defined(__clang__)
  json->Key("compiler").String(__VERSION__);
#else
  json->Key("compiler").String(std::string("g++ ") + __VERSION__);
#endif
  json->Key("build_type").String(MSOPDS_BUILD_TYPE);
}

/// Emits the serving engine's robustness counters (plus client-side
/// retry totals) into the current JSON object, so BENCH_serving.json
/// rows track the shed/reject/degraded trajectory the same way the perf
/// tables track latency. `precision` is the snapshot storage mode the
/// run published ("fp64" / "int8"), so quantized rows are
/// distinguishable from full-precision ones. Call between Key/Value
/// pairs of an open object.
inline void WriteRobustnessFields(JsonWriter* json,
                                  const serve::EngineStats& stats,
                                  int64_t retries,
                                  const std::string& precision = "fp64") {
  json->Key("precision").String(precision);
  json->Key("admitted").Int(stats.admitted);
  json->Key("rejected").Int(stats.rejected);
  json->Key("shed").Int(stats.shed);
  json->Key("degraded").Int(stats.degraded);
  json->Key("cancelled").Int(stats.cancelled);
  json->Key("retries").Int(retries);
  json->Key("deadline_misses").Int(stats.deadline_misses);
  json->Key("max_queue_depth").Int(stats.max_queue_depth);
  json->Key("publish_failures").Int(stats.publish_failures);
}

/// Summary of one benchmark cell's repetitions. The committed speedup
/// tables use the min (least-noise estimate); median and relative
/// spread ride along so a single noisy repetition is visible in the
/// JSON instead of silently shifting a claim.
struct RepStats {
  double min = 0.0;
  double median = 0.0;
  /// (max - min) / min; 0 for a single repetition.
  double spread = 0.0;

  static RepStats Of(std::vector<double> samples) {
    RepStats stats;
    if (samples.empty()) return stats;
    std::sort(samples.begin(), samples.end());
    stats.min = samples.front();
    stats.median = samples[samples.size() / 2];
    if (stats.min > 0.0) {
      stats.spread = (samples.back() - samples.front()) / stats.min;
    }
    return stats;
  }
};

/// Emits one cell's repetition statistics under `prefix` ("<prefix>_ns",
/// "<prefix>_median_ns", "<prefix>_spread") into the current object.
inline void WriteRepStatsFields(JsonWriter* json, const std::string& prefix,
                                const RepStats& stats) {
  json->Key(prefix + "_ns").Double(stats.min);
  json->Key(prefix + "_median_ns").Double(stats.median);
  json->Key(prefix + "_spread").Double(stats.spread);
}

struct BenchFlags {
  double scale = 0.12;
  /// Games averaged per cell; each bench sets its own default before
  /// parsing.
  int repeats = 1;
  uint64_t seed = 7;
  std::vector<std::string> datasets = {"ciao", "epinions", "librarything"};
  std::vector<int> budgets = {2, 3, 4, 5};
  std::vector<int> opponents = {1, 2, 3, 4};
  std::vector<std::string> methods;
  /// Kernel thread count; 0 keeps the global pool's default
  /// (MSOPDS_THREADS or hardware concurrency).
  int threads = 0;

  /// Sweep work directory; empty = a temporary one, removed at the end.
  std::string checkpoint;
  /// Fault-injection plan (all zero/disabled by default).
  double fault_nan = 0.0;
  double fault_cg = 0.0;
  uint64_t fault_seed = 17;
  int fault_crash_cell = -1;
  /// Sweep worker processes; 0 runs every cell in this process.
  int workers = 0;
  /// Appended by the sweep orchestrator when it starts this binary as a
  /// worker; a non-empty segment selects worker mode.
  int worker_id = 0;
  std::string segment;

  /// Declares the flags of every bench that plays games: --scale,
  /// --repeats, --seed, --datasets, --methods and --threads. Names are
  /// checked later, by CheckExperimentNames.
  void DeclareGameFlags(FlagSet* flags) {
    flags->Double("--scale", &scale, kMinProfileScale, kMaxProfileScale);
    flags->Int("--repeats", &repeats, 1);
    flags->Int("--seed", &seed, 0);
    flags->StringList("--datasets", &datasets);
    flags->StringList("--methods", &methods);
    flags->Int("--threads", &threads, 0, ThreadPool::kMaxThreads);
  }

  /// Parses a paper sweep's command line: the game flags, then --budgets
  /// and --opponents (attacker budget levels, and opponent counts or
  /// budget levels; a level is a percentage of the user count, see
  /// AttackBudget::FromLevel), the resilience flags, --workers and the
  /// orchestrator's --worker_id and --segment.
  Status Parse(int argc, char** argv) {
    FlagSet flags(argv[0]);
    DeclareGameFlags(&flags);
    flags.IntList("--budgets", &budgets, 1, 100);
    flags.IntList("--opponents", &opponents, 1, 100);
    flags.String("--checkpoint", &checkpoint);
    flags.Double("--fault_nan", &fault_nan, 0.0, 1.0);
    flags.Double("--fault_cg", &fault_cg, 0.0, 1.0);
    flags.Int("--fault_seed", &fault_seed, 0);
    flags.Int("--fault_crash_cell", &fault_crash_cell, -1);
    flags.Int("--workers", &workers, 0, 256);
    flags.Int("--worker_id", &worker_id, 0);
    flags.String("--segment", &segment);
    return flags.Parse(argc, argv);
  }

  /// The fault plan one sweep cell runs under. Its seed mixes
  /// --fault_seed with the cell's key (64-bit FNV-1a), so a cell draws
  /// the same faults in any process and in any dispatch order.
  FaultConfig CellFaultConfig(const std::string& key) const {
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : key) hash = (hash ^ c) * 0x100000001b3ULL;
    FaultConfig config;
    config.seed = fault_seed ^ hash;
    config.trainer_nan_probability = fault_nan;
    config.surrogate_nan_probability = fault_nan;
    config.solver_breakdown_probability = fault_cg;
    config.crash_at_cell = fault_crash_cell;
    return config;
  }
};

/// Path of the running executable (Linux: /proc/self/exe), so a bench can
/// start itself as a subprocess; argv0 elsewhere.
inline std::string SelfExecutable(const char* argv0) {
#if defined(__linux__)
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
#endif
  return argv0;
}

/// One column of a paper table: the label that ends its cell keys
/// ("b=4", "N=2", "b_op=3"), the game its cells play and the attacker's
/// budget level.
struct SweepColumn {
  std::string label;
  GameConfig game;
  int budget_level = 0;
};

/// One dataset's cells, [method][column] in flags.methods × columns order.
using SweepTable = std::vector<std::vector<CellRecord>>;

/// What a paper bench declares; RunPaperSweep does the rest.
struct PaperSweep {
  /// Printed first.
  std::string title;
  /// Heading of the row-label column.
  std::string row_header = "method";
  std::vector<SweepColumn> columns;
  /// Prints the bench's summary lines after each dataset's rows.
  std::function<void(const SweepTable&)> after_table;
  /// Prints the bench's closing lines after the last table.
  std::function<void()> after_all;
};

/// Executes paper-sweep cells from their keys, "dataset|method|label".
/// Builds each dataset once per process. Before each cell it installs
/// the flags' fault plan with the cell's own seed, and it stages the
/// crash drill: after --fault_crash_cell executed cells, the process
/// exits with status 42 before persisting the next. ShouldCrashAtCell sees
/// each executed-cell index once, so reinstalling the plan per cell
/// cannot fire the crash twice, and a marker file in the work directory
/// (O_CREAT|O_EXCL) lets only the first process there take it — a resumed
/// run or a respawned worker gets past the crash point.
class PaperCells {
 public:
  PaperCells(const BenchFlags& flags, const std::vector<SweepColumn>& columns,
             std::string work_dir)
      : flags_(flags), columns_(columns), work_dir_(std::move(work_dir)) {}

  const Dataset& dataset(const std::string& name) {
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      it = datasets_
               .emplace(name, MakeExperimentDataset(name, flags_.scale,
                                                    flags_.seed))
               .first;
    }
    return it->second;
  }

  CellRecord Execute(const std::string& key) {
    CellRecord record;
    record.key = key;
    record.threads = ThreadPool::Global().num_threads();
    const std::vector<std::string> parts = StrSplit(key, '|');
    const SweepColumn* column = nullptr;
    if (parts.size() == 3 && Listed(flags_.datasets, parts[0]) &&
        Listed(flags_.methods, parts[1])) {
      for (const SweepColumn& candidate : columns_) {
        if (candidate.label == parts[2]) column = &candidate;
      }
    }
    if (column == nullptr) {
      record.ok = false;
      record.error = "not a cell of this sweep";
      return record;
    }
    FaultInjector::Global().Configure(flags_.CellFaultConfig(key));
    if (FaultInjector::Global().ShouldCrashAtCell(executed_cells_++) &&
        ClaimCrash()) {
      std::fprintf(stderr,
                   "[fault] simulated crash before cell '%s'; rerun with "
                   "the same --checkpoint to resume\n",
                   key.c_str());
      std::_Exit(42);
    }
    const MultiplayerGame game(dataset(parts[0]), column->game);
    const CellOutcome outcome =
        RunRepeatedCellChecked(game, parts[1], column->budget_level,
                               flags_.seed + 1, flags_.repeats);
    record.ok = outcome.ok;
    record.mean_average_rating = outcome.stats.mean_average_rating;
    record.mean_hit_rate = outcome.stats.mean_hit_rate;
    record.repeats = outcome.stats.repeats;
    record.unhealthy_repeats = outcome.unhealthy_repeats;
    record.error = outcome.error;
    return record;
  }

 private:
  static bool Listed(const std::vector<std::string>& names,
                     const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  bool ClaimCrash() const {
    const std::string marker = work_dir_ + "/crash.marker";
    const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }

  const BenchFlags& flags_;
  const std::vector<SweepColumn>& columns_;
  std::string work_dir_;
  std::map<std::string, Dataset> datasets_;
  int executed_cells_ = 0;
};

/// The orchestrator's work directory: --checkpoint=DIR, or a fresh
/// temporary directory that is removed again when the sweep ends.
class SweepWorkDir {
 public:
  explicit SweepWorkDir(const std::string& checkpoint) : path_(checkpoint) {
    if (path_.empty()) {
      std::string pattern =
          (std::filesystem::temp_directory_path() / "msopds-sweep-XXXXXX")
              .string();
      if (::mkdtemp(pattern.data()) != nullptr) {
        path_ = pattern;
        temporary_ = true;
      }
    }
  }
  ~SweepWorkDir() {
    std::error_code ec;
    if (temporary_) std::filesystem::remove_all(path_, ec);
  }
  SweepWorkDir(const SweepWorkDir&) = delete;
  SweepWorkDir& operator=(const SweepWorkDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool temporary_ = false;
};

/// Prints one table row: the row label, then each cell's (rbar, HR@3)
/// pair; a recorded failure prints as FAIL instead of a bogus metric.
inline void PrintRow(const std::string& label,
                     const std::vector<CellRecord>& cells) {
  std::printf("%-22s", label.c_str());
  for (const CellRecord& cell : cells) {
    if (cell.ok) {
      std::printf("  %6.4f %6.4f", cell.mean_average_rating,
                  cell.mean_hit_rate);
    } else {
      std::printf("  %6s %6s", "FAIL", "-");
    }
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& first,
                        const std::vector<std::string>& columns) {
  std::printf("%-22s", first.c_str());
  for (const std::string& column : columns) {
    std::printf("  %13s", column.c_str());
  }
  std::printf("\n%-22s", "");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("  %6s %6s", "rbar", "HR@3");
  }
  std::printf("\n");
}

/// Runs a paper bench: every dataset × method × column cell, keyed
/// "dataset|method|label", goes through scale::SweepOrchestrator —
/// RunInline at --workers=0, else Run across that many workers, each a
/// re-execution of this binary with the same arguments — and the tables
/// print from the merged checkpoint in key order, one per dataset.
/// Started with --segment=, the bench is such a worker instead: stdout
/// carries the orchestrator protocol, so it prints nothing else there.
/// Returns the process exit status: 1 when the sweep fails, 2 when a
/// dataset or method name is unknown (checked before anything runs) or
/// the work directory holds cells recorded at another kernel thread
/// count.
inline int RunPaperSweep(int argc, char** argv, const BenchFlags& flags,
                         const PaperSweep& sweep) {
  const Status names = CheckExperimentNames(flags.datasets, flags.methods);
  if (!names.ok()) return UsageError(names);
  if (flags.threads > 0) ThreadPool::Global().SetNumThreads(flags.threads);
  if (!flags.segment.empty()) {
    PaperCells cells(
        flags, sweep.columns,
        std::filesystem::path(flags.segment).parent_path().string());
    CheckpointStore segment(flags.segment);
    return scale::RunWorkerLoop(
        std::cin, std::cout, &segment, flags.worker_id,
        [&cells](const std::string& key) { return cells.Execute(key); });
  }

  std::printf("%s", sweep.title.c_str());
  std::vector<std::string> keys;
  for (const std::string& dataset : flags.datasets) {
    for (const std::string& method : flags.methods) {
      for (const SweepColumn& column : sweep.columns) {
        keys.push_back(dataset + "|" + method + "|" + column.label);
      }
    }
  }
  const SweepWorkDir work_dir(flags.checkpoint);
  std::error_code ec;
  std::filesystem::create_directories(work_dir.path(), ec);
  if (work_dir.path().empty() || ec) {
    std::fprintf(stderr, "cannot create the sweep work directory '%s'\n",
                 work_dir.path().c_str());
    return 1;
  }
  scale::OrchestratorOptions options;
  options.num_workers = flags.workers;
  options.work_dir = work_dir.path();
  options.worker_argv = {SelfExecutable(argv[0])};
  options.worker_argv.insert(options.worker_argv.end(), argv + 1,
                             argv + argc);
  scale::SweepOrchestrator orchestrator(options);

  // Metrics are thread-count invariant, but a sweep whose timings mix
  // cells run at different thread counts is not one experiment. Refuse
  // to resume rather than produce a silently inconsistent run.
  const int threads = ThreadPool::Global().num_threads();
  std::vector<std::pair<std::string, CellRecord>> done;
  const Status scanned = orchestrator.ScanSegments(&done);
  if (!scanned.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", scanned.ToString().c_str());
    return 1;
  }
  for (const auto& [path, record] : done) {
    if (record.threads == threads) continue;
    std::fprintf(stderr,
                 "[checkpoint] %s:%lld: cell '%s' was recorded at %d "
                 "thread(s) by worker %d but this run uses %d; rerun "
                 "with --threads=%d or a fresh --checkpoint directory\n",
                 path.c_str(), static_cast<long long>(record.source_line),
                 record.key.c_str(), record.threads, record.worker_id,
                 threads, record.threads);
    return 2;
  }

  PaperCells cells(flags, sweep.columns, work_dir.path());
  auto result =
      flags.workers > 0
          ? orchestrator.Run(keys)
          : orchestrator.RunInline(keys, [&cells](const std::string& key) {
              return cells.Execute(key);
            });
  if (!result.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (result.value().cells_resumed > 0) {
    std::fprintf(stderr, "[checkpoint] %s: %lld completed cell(s) skipped\n",
                 work_dir.path().c_str(),
                 static_cast<long long>(result.value().cells_resumed));
  }

  const CheckpointStore merged(result.value().merged_path);
  std::map<std::string, const CellRecord*> by_key;
  for (const CellRecord& record : merged.records()) {
    by_key[record.key] = &record;
  }
  std::vector<std::string> labels;
  for (const SweepColumn& column : sweep.columns) {
    labels.push_back(column.label);
  }
  for (const std::string& dataset : flags.datasets) {
    std::printf("\n[%s] %s\n", dataset.c_str(),
                cells.dataset(dataset).Summary().c_str());
    PrintHeader(sweep.row_header, labels);
    SweepTable table;
    for (const std::string& method : flags.methods) {
      std::vector<CellRecord> row;
      for (const std::string& label : labels) {
        row.push_back(*by_key.at(dataset + "|" + method + "|" + label));
      }
      PrintRow(method, row);
      table.push_back(std::move(row));
    }
    if (sweep.after_table) sweep.after_table(table);
  }
  if (sweep.after_all) sweep.after_all();
  return 0;
}

/// rbar drop from the first to the last column, for the MSOPDS row and
/// for the best baseline in each column (Figs. 6 and 7). False unless
/// exactly one row is MSOPDS and the table has columns.
inline bool RbarDrops(const std::vector<std::string>& methods,
                      const SweepTable& table, double* msopds_drop,
                      double* baseline_drop) {
  if (table.empty() || table[0].empty()) return false;
  std::vector<double> msopds;
  std::vector<double> best_baseline(table[0].size(), 0.0);
  for (size_t row = 0; row < table.size(); ++row) {
    for (size_t column = 0; column < table[row].size(); ++column) {
      const double rbar = table[row][column].mean_average_rating;
      if (methods[row] == "MSOPDS") {
        msopds.push_back(rbar);
      } else {
        best_baseline[column] = std::max(best_baseline[column], rbar);
      }
    }
  }
  if (msopds.size() != best_baseline.size()) return false;
  *msopds_drop = msopds.front() - msopds.back();
  *baseline_drop = best_baseline.front() - best_baseline.back();
  return true;
}

}  // namespace msopds

#endif  // MSOPDS_BENCH_BENCH_UTIL_H_
