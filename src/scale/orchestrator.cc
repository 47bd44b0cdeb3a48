#include "scale/orchestrator.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <system_error>
#include <unordered_map>

#include "util/logging.h"
#include "util/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#define MSOPDS_ORCH_HAVE_POSIX 1
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace msopds {
namespace scale {
namespace {

// A cell that was in flight on this many crashed workers fails the run
// (guards against a cell that deterministically kills its host).
constexpr int kMaxAttemptsPerCell = 3;

std::string SegmentFileName(int worker_id, int64_t generation) {
  return StrFormat("segment-w%d-g%lld.jsonl", worker_id,
                   static_cast<long long>(generation));
}

bool ParseSegmentFileName(const std::string& name, int* worker_id,
                          long long* generation) {
  // Reject trailing junk by re-rendering and comparing.
  if (std::sscanf(name.c_str(), "segment-w%d-g%lld.jsonl", worker_id,
                  generation) != 2) {
    return false;
  }
  return name == SegmentFileName(*worker_id, *generation);
}

/// Records compare equal when every field except worker_id (and the
/// source_line bookkeeping) matches — serialized form with the worker
/// field normalized, so double comparison is bitwise.
std::string NormalizedJson(const CellRecord& record) {
  CellRecord copy = record;
  copy.worker_id = 0;
  copy.source_line = 0;
  return CellRecordToJson(copy);
}

}  // namespace

SweepOrchestrator::SweepOrchestrator(OrchestratorOptions options)
    : options_(std::move(options)) {}

Status SweepOrchestrator::ScanSegments(
    std::vector<std::pair<std::string, CellRecord>>* records) const {
  std::error_code ec;
  std::vector<std::string> segment_names;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.work_dir, ec)) {
    int worker_id = 0;
    long long generation = 0;
    const std::string name = entry.path().filename().string();
    if (ParseSegmentFileName(name, &worker_id, &generation)) {
      segment_names.push_back(name);
    }
  }
  if (ec) {
    return Status::Internal("cannot list " + options_.work_dir + ": " +
                            ec.message());
  }
  std::sort(segment_names.begin(), segment_names.end());
  for (const std::string& name : segment_names) {
    const std::string path = options_.work_dir + "/" + name;
    // CheckpointStore drops torn trailing lines (a SIGKILLed worker's
    // in-flight write) and collapses duplicates within one segment.
    CheckpointStore store(path);
    for (const CellRecord& record : store.records()) {
      records->emplace_back(path, record);
    }
  }
  return Status::Ok();
}

StatusOr<std::string> SweepOrchestrator::MergeSegments(
    const std::vector<std::string>& keys) const {
  std::vector<std::pair<std::string, CellRecord>> all;
  Status status = ScanSegments(&all);
  if (!status.ok()) return status;

  std::unordered_map<std::string, std::vector<const CellRecord*>> by_key;
  for (const auto& [path, record] : all) {
    by_key[record.key].push_back(&record);
  }

  std::vector<const CellRecord*> merged;
  merged.reserve(keys.size());
  for (const std::string& key : keys) {
    auto it = by_key.find(key);
    if (it == by_key.end()) {
      return Status::Internal("merge: no segment holds cell '" + key + "'");
    }
    const CellRecord* chosen = it->second.front();
    const std::string reference = NormalizedJson(*chosen);
    bool conflict = false;
    for (const CellRecord* candidate : it->second) {
      if (NormalizedJson(*candidate) != reference) conflict = true;
      if (candidate->worker_id < chosen->worker_id) chosen = candidate;
    }
    if (conflict) {
      // List every worker id that reported the cell, sorted + deduped,
      // so the operator can find the stale or divergent segment.
      std::vector<int> workers;
      for (const CellRecord* candidate : it->second) {
        workers.push_back(candidate->worker_id);
      }
      std::sort(workers.begin(), workers.end());
      workers.erase(std::unique(workers.begin(), workers.end()),
                    workers.end());
      std::string listed;
      for (int w : workers) {
        if (!listed.empty()) listed += ", ";
        listed += std::to_string(w);
      }
      return Status::FailedPrecondition(StrFormat(
          "refusing to merge sweep segments: cell '%s' differs across "
          "workers [%s]; the executor is non-deterministic or a stale "
          "segment from an older sweep is present under %s",
          key.c_str(), listed.c_str(), options_.work_dir.c_str()));
    }
    merged.push_back(chosen);
  }

  const std::string path = options_.work_dir + "/sweep.ckpt";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("cannot write " + tmp);
    }
    for (const CellRecord* record : merged) {
      out << CellRecordToJson(*record) << '\n';
    }
    out.flush();
    if (!out) return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp + " into place");
  }
  return path;
}

StatusOr<OrchestratorResult> SweepOrchestrator::RunInline(
    const std::vector<std::string>& keys, const CellExecutor& executor) {
  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + options_.work_dir + ": " +
                            ec.message());
  }
  OrchestratorResult result;
  result.cells_total = static_cast<int64_t>(keys.size());

  std::vector<std::pair<std::string, CellRecord>> existing;
  Status status = ScanSegments(&existing);
  if (!status.ok()) return status;
  long long max_generation = -1;
  {
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.work_dir, ec)) {
      int worker_id = 0;
      long long generation = 0;
      if (ParseSegmentFileName(entry.path().filename().string(), &worker_id,
                               &generation)) {
        max_generation = std::max(max_generation, generation);
      }
    }
  }
  std::unordered_map<std::string, bool> done;
  for (const auto& [path, record] : existing) done[record.key] = true;

  CheckpointStore segment(options_.work_dir + "/" +
                          SegmentFileName(0, max_generation + 1));
  for (const std::string& key : keys) {
    if (done.count(key) > 0) {
      ++result.cells_resumed;
      continue;
    }
    CellRecord record = executor(key);
    record.key = key;
    record.worker_id = 0;
    segment.Append(record);
    ++result.cells_executed;
  }

  auto merged = MergeSegments(keys);
  if (!merged.ok()) return merged.status();
  result.merged_path = std::move(merged).value();
  return result;
}

#if MSOPDS_ORCH_HAVE_POSIX

namespace {

/// Ignore SIGPIPE for the lifetime of a Run (a worker dying between
/// dispatch and write would otherwise kill the orchestrator), restoring
/// the previous disposition on every exit path.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore_action;
    std::memset(&ignore_action, 0, sizeof(ignore_action));
    ignore_action.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ignore_action, &old_action_);
  }
  ~ScopedIgnoreSigpipe() { sigaction(SIGPIPE, &old_action_, nullptr); }

 private:
  struct sigaction old_action_;
};

struct Worker {
  int worker_id = -1;
  pid_t pid = -1;
  int to_child = -1;    // write end of the child's stdin
  int from_child = -1;  // read end of the child's stdout
  bool alive = false;
  std::string buffer;       // partial protocol line from the child
  std::string current_key;  // cell in flight, empty when idle
};

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void CloseWorkerFds(Worker* worker) {
  if (worker->to_child >= 0) ::close(worker->to_child);
  if (worker->from_child >= 0) ::close(worker->from_child);
  worker->to_child = -1;
  worker->from_child = -1;
}

void KillAll(std::vector<Worker>* workers) {
  for (Worker& worker : *workers) {
    if (!worker.alive) continue;
    CloseWorkerFds(&worker);
    ::kill(worker.pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(worker.pid, &wstatus, 0);
    worker.alive = false;
  }
}

}  // namespace

StatusOr<OrchestratorResult> SweepOrchestrator::Run(
    const std::vector<std::string>& keys) {
  if (options_.num_workers <= 0) {
    return Status::InvalidArgument(
        "Run needs num_workers > 0 (RunInline is the 0-worker arm)");
  }
  if (options_.worker_argv.empty()) {
    return Status::InvalidArgument("worker_argv must name the worker binary");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + options_.work_dir + ": " +
                            ec.message());
  }

  OrchestratorResult result;
  result.cells_total = static_cast<int64_t>(keys.size());

  // Resume: cells already recorded in surviving segments are not
  // re-dispatched. Generations continue past the highest survivor so a
  // respawn never appends to an old (possibly torn) file.
  std::vector<std::pair<std::string, CellRecord>> existing;
  Status status = ScanSegments(&existing);
  if (!status.ok()) return status;
  std::unordered_map<std::string, bool> done;
  for (const auto& [path, record] : existing) done[record.key] = true;
  long long next_generation = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.work_dir, ec)) {
    int worker_id = 0;
    long long generation = 0;
    if (ParseSegmentFileName(entry.path().filename().string(), &worker_id,
                             &generation)) {
      next_generation = std::max(next_generation, generation + 1);
    }
  }

  std::deque<std::string> pending;
  for (const std::string& key : keys) {
    if (done.count(key) > 0) {
      ++result.cells_resumed;
    } else {
      pending.push_back(key);
    }
  }
  int64_t remaining = static_cast<int64_t>(pending.size());

  ScopedIgnoreSigpipe ignore_sigpipe;
  std::vector<Worker> workers;
  std::unordered_map<std::string, int> attempts;

  auto spawn = [&](int worker_id) -> Status {
    const std::string segment =
        options_.work_dir + "/" + SegmentFileName(worker_id, next_generation);
    ++next_generation;
    int to_child_pipe[2], from_child_pipe[2];
    if (::pipe(to_child_pipe) != 0) {
      return Status::Internal("pipe() failed");
    }
    if (::pipe(from_child_pipe) != 0) {
      ::close(to_child_pipe[0]);
      ::close(to_child_pipe[1]);
      return Status::Internal("pipe() failed");
    }
    // The parent-side ends must not leak into later-spawned workers: a
    // sibling holding a duplicate of this worker's stdin write end would
    // keep that stdin open after the orchestrator closes it, so the
    // worker never sees EOF and the final reap deadlocks.
    ::fcntl(to_child_pipe[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(from_child_pipe[0], F_SETFD, FD_CLOEXEC);
    std::vector<std::string> argv_storage = options_.worker_argv;
    argv_storage.push_back(StrFormat("--worker_id=%d", worker_id));
    argv_storage.push_back("--segment=" + segment);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(to_child_pipe[0]);
      ::close(to_child_pipe[1]);
      ::close(from_child_pipe[0]);
      ::close(from_child_pipe[1]);
      return Status::Internal("fork() failed");
    }
    if (pid == 0) {
      // Child: wire the pipes to stdin/stdout and exec the worker. Only
      // async-signal-safe calls between fork and exec.
      ::dup2(to_child_pipe[0], STDIN_FILENO);
      ::dup2(from_child_pipe[1], STDOUT_FILENO);
      ::close(to_child_pipe[0]);
      ::close(to_child_pipe[1]);
      ::close(from_child_pipe[0]);
      ::close(from_child_pipe[1]);
      std::vector<char*> argv;
      argv.reserve(argv_storage.size() + 1);
      for (std::string& arg : argv_storage) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(to_child_pipe[0]);
    ::close(from_child_pipe[1]);
    Worker worker;
    worker.worker_id = worker_id;
    worker.pid = pid;
    worker.to_child = to_child_pipe[1];
    worker.from_child = from_child_pipe[0];
    worker.alive = true;
    workers.push_back(std::move(worker));
    ++result.workers_spawned;
    return Status::Ok();
  };

  auto fail = [&](const std::string& message) -> Status {
    KillAll(&workers);
    return Status::Internal(message);
  };

  // A worker died (pipe hung up / reaped). Requeue its in-flight cell at
  // the front and account the attempt; the caller decides on respawn.
  auto handle_crash = [&](Worker* worker) -> Status {
    worker->alive = false;
    CloseWorkerFds(worker);
    int wstatus = 0;
    ::waitpid(worker->pid, &wstatus, 0);
    ++result.worker_crashes;
    if (!worker->current_key.empty()) {
      const std::string key = worker->current_key;
      worker->current_key.clear();
      const int tries = ++attempts[key];
      if (tries >= kMaxAttemptsPerCell) {
        return fail(StrFormat(
            "cell '%s' was in flight on %d crashed workers; giving up",
            key.c_str(), tries));
      }
      pending.push_front(key);
      ++result.cells_redispatched;
      MSOPDS_LOG(Warning) << "worker " << worker->worker_id << " (pid "
                          << worker->pid << ") died with cell '" << key
                          << "' in flight; re-dispatching";
    }
    return Status::Ok();
  };

  auto dispatch_idle = [&]() -> Status {
    for (Worker& worker : workers) {
      if (pending.empty()) break;
      if (!worker.alive || !worker.current_key.empty()) continue;
      const std::string key = pending.front();
      pending.pop_front();
      worker.current_key = key;
      if (!WriteAll(worker.to_child, "CELL " + key + "\n")) {
        const Status crash = handle_crash(&worker);
        if (!crash.ok()) return crash;
      }
    }
    return Status::Ok();
  };

  const int initial_workers = static_cast<int>(
      std::min<int64_t>(options_.num_workers, std::max<int64_t>(remaining, 0)));
  for (int w = 0; w < initial_workers; ++w) {
    const Status spawned = spawn(w + 1);  // worker ids start at 1; 0 = inline
    if (!spawned.ok()) {
      KillAll(&workers);
      return spawned;
    }
  }

  while (remaining > 0) {
    const Status dispatched = dispatch_idle();
    if (!dispatched.ok()) return dispatched;

    std::vector<struct pollfd> fds;
    std::vector<size_t> fd_worker;
    for (size_t w = 0; w < workers.size(); ++w) {
      if (!workers[w].alive) continue;
      fds.push_back({workers[w].from_child, POLLIN, 0});
      fd_worker.push_back(w);
    }
    if (fds.empty()) {
      // Every worker is dead but cells remain: respawn replacements
      // (ids reused, fresh generations) and go around again.
      for (int w = 0; w < options_.num_workers; ++w) {
        const Status spawned = spawn(w + 1);
        if (!spawned.ok()) {
          KillAll(&workers);
          return spawned;
        }
      }
      continue;
    }
    const int ready = ::poll(fds.data(), fds.size(), 1000);
    if (ready < 0 && errno != EINTR) {
      return fail("poll() failed");
    }

    for (size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      Worker& worker = workers[fd_worker[f]];
      if (!worker.alive) continue;
      // Drain everything readable first — the final DONE of a worker
      // that exited cleanly arrives together with the hangup.
      bool eof = false;
      if (fds[f].revents & (POLLIN | POLLHUP | POLLERR)) {
        char chunk[4096];
        while (true) {
          const ssize_t n = ::read(worker.from_child, chunk, sizeof(chunk));
          if (n > 0) {
            worker.buffer.append(chunk, static_cast<size_t>(n));
            if (static_cast<size_t>(n) < sizeof(chunk)) break;
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n == 0) eof = true;
          break;
        }
      }
      size_t newline;
      while ((newline = worker.buffer.find('\n')) != std::string::npos) {
        const std::string line = worker.buffer.substr(0, newline);
        worker.buffer.erase(0, newline + 1);
        if (line.rfind("DONE ", 0) != 0) {
          return fail("worker protocol violation: '" + line + "'");
        }
        const std::string key = line.substr(5);
        if (key != worker.current_key) {
          return fail("worker answered DONE for '" + key +
                      "' but was running '" + worker.current_key + "'");
        }
        worker.current_key.clear();
        ++result.cells_executed;
        --remaining;
      }
      if (eof) {
        const Status crash = handle_crash(&worker);
        if (!crash.ok()) return crash;
        if (!pending.empty()) {
          const Status spawned = spawn(worker.worker_id);
          if (!spawned.ok()) {
            KillAll(&workers);
            return spawned;
          }
        }
      }
    }
  }

  // All cells done: close stdins (workers see EOF and exit) and reap.
  for (Worker& worker : workers) {
    if (!worker.alive) continue;
    CloseWorkerFds(&worker);
    int wstatus = 0;
    ::waitpid(worker.pid, &wstatus, 0);
    worker.alive = false;
  }

  auto merged = MergeSegments(keys);
  if (!merged.ok()) return merged.status();
  result.merged_path = std::move(merged).value();
  return result;
}

#else  // !MSOPDS_ORCH_HAVE_POSIX

StatusOr<OrchestratorResult> SweepOrchestrator::Run(
    const std::vector<std::string>& keys) {
  (void)keys;
  return Status::Internal(
      "subprocess sweep orchestration requires a POSIX platform; "
      "use RunInline");
}

#endif  // MSOPDS_ORCH_HAVE_POSIX

int RunWorkerLoop(std::istream& in, std::ostream& out,
                  CheckpointStore* segment, int worker_id,
                  const CellExecutor& executor) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("CELL ", 0) != 0) return 1;
    const std::string key = line.substr(5);
    CellRecord record = executor(key);
    record.key = key;
    record.worker_id = worker_id;
    // Segment append (flushed) strictly before DONE: a kill after the
    // append but before the DONE merely re-runs a cell that is already
    // durable; the merge collapses the duplicate.
    segment->Append(record);
    out << "DONE " << key << "\n" << std::flush;
  }
  return 0;
}

}  // namespace scale
}  // namespace msopds
