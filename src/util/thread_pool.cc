#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

#include "util/env.h"
#include "util/logging.h"

namespace msopds {
namespace {

// Set while the current thread executes chunk functors; makes nested
// ParallelFor calls run inline (rejection of nested parallelism).
thread_local bool tls_in_parallel_region = false;

}  // namespace

int64_t NumChunks(int64_t total, int64_t grain) {
  MSOPDS_CHECK_GT(grain, 0);
  MSOPDS_CHECK_GE(total, 0);
  if (total == 0) return 0;
  return (total + grain - 1) / grain;
}

double PairwiseSum(std::vector<double> partials) {
  if (partials.empty()) return 0.0;
  // In place: level entry i reads entries 2i and 2i+1, never one already
  // overwritten on this level.
  size_t size = partials.size();
  while (size > 1) {
    const size_t half = size / 2;
    for (size_t i = 0; i < half; ++i) {
      partials[i] = partials[2 * i] + partials[2 * i + 1];
    }
    if (size % 2 == 1) partials[half] = partials[size - 1];
    size = half + size % 2;
  }
  return partials[0];
}

// One parallel region. Published to the workers as a shared_ptr so a
// worker that wakes up late can still safely inspect an already-finished
// job.
struct ThreadPool::Job {
  // The region shape is written once, before the job is published to the
  // workers under mu_, and read-only afterwards.
  const std::function<void(int64_t, int64_t, int64_t)>* fn = nullptr;
  int64_t total = 0;       // determinism-lint: unguarded(immutable after publish)
  int64_t grain = 0;       // determinism-lint: unguarded(immutable after publish)
  int64_t num_chunks = 0;  // determinism-lint: unguarded(immutable after publish)

  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> finished_chunks{0};
  std::atomic<bool> cancelled{false};

  // Lowest-indexed exception observed across chunks; rethrown by the
  // caller so a failing chunk behaves like the serial path reaching it.
  Mutex error_mu;
  int64_t error_chunk MSOPDS_GUARDED_BY(error_mu) = -1;
  std::exception_ptr error MSOPDS_GUARDED_BY(error_mu);
};

ThreadPool& ThreadPool::Global() {
  static ThreadPool* const pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

int ThreadPool::DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware =
      hw == 0 ? 1 : std::min<int>(static_cast<int>(hw), kMaxThreads);
  return static_cast<int>(EnvCount("MSOPDS_THREADS", kMaxThreads, hardware));
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads_ = std::clamp(num_threads, 1, kMaxThreads);
  StartWorkers();
}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::SetNumThreads(int num_threads) {
  MSOPDS_CHECK(!InParallelRegion())
      << "SetNumThreads inside a parallel region";
  num_threads = std::clamp(num_threads, 1, kMaxThreads);
  if (num_threads == num_threads_) return;
  StopWorkers();
  num_threads_ = num_threads;
  StartWorkers();
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::StartWorkers() {
  {
    MutexLock lock(mu_);
    stopping_ = false;
  }
  const int helpers = num_threads_ - 1;  // the caller is worker zero
  workers_.reserve(static_cast<size_t>(std::max(helpers, 0)));
  for (int i = 0; i < helpers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::StopWorkers() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  job_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mu_);
      // Bounded by the pool's lifecycle contract: StopWorkers() sets
      // stopping_ and notifies before joining.
      while (!stopping_ && job_ == nullptr) {
        job_cv_.Wait(lock);  // lint:allow-blocking-wait (lifecycle-bounded)
      }
      if (stopping_) return;
      job = job_;
    }
    RunChunks(job.get());
    {
      MutexLock lock(mu_);
      // Drop the drained job so we block instead of spinning on it.
      if (job_ == job &&
          job->next_chunk.load(std::memory_order_relaxed) >=
              job->num_chunks) {
        job_ = nullptr;
      }
    }
    done_cv_.NotifyAll();
  }
}

// Claims chunks off the shared counter until the grid is drained. Chunk
// *assignment* to threads is dynamic; chunk *content* is fixed by the
// grid, so dynamic scheduling never affects results.
void ThreadPool::RunChunks(Job* job) {
  tls_in_parallel_region = true;
  while (true) {
    const int64_t chunk =
        job->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job->num_chunks) break;
    if (!job->cancelled.load(std::memory_order_relaxed)) {
      const int64_t begin = chunk * job->grain;
      const int64_t end = std::min(begin + job->grain, job->total);
      try {
        (*job->fn)(begin, end, chunk);
      } catch (...) {
        job->cancelled.store(true, std::memory_order_relaxed);
        MutexLock lock(job->error_mu);
        if (job->error_chunk < 0 || chunk < job->error_chunk) {
          job->error_chunk = chunk;
          job->error = std::current_exception();
        }
      }
    }
    job->finished_chunks.fetch_add(1, std::memory_order_acq_rel);
  }
  tls_in_parallel_region = false;
}

void ThreadPool::ParallelFor(
    int64_t total, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  const int64_t num_chunks = NumChunks(total, grain);
  if (num_chunks == 0) return;
  std::shared_ptr<Job> job;
  if (num_chunks > 1 && num_threads_ > 1 && !tls_in_parallel_region &&
      !workers_.empty()) {
    MutexLock lock(mu_);
    // Another caller's region holds the pool: this one takes the serial
    // path below instead of waiting for it.
    if (job_ == nullptr) {
      job = std::make_shared<Job>();
      job->fn = &fn;
      job->total = total;
      job->grain = grain;
      job->num_chunks = num_chunks;
      job_ = job;
    }
  }
  // Serial path: one chunk, a serial pool, a nested call or a busy pool.
  // Same grid, same per-chunk code, executed inline in chunk order.
  if (job == nullptr) {
    const bool was_inside = tls_in_parallel_region;
    tls_in_parallel_region = true;
    try {
      for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
        const int64_t begin = chunk * grain;
        const int64_t end = std::min(begin + grain, total);
        fn(begin, end, chunk);
      }
    } catch (...) {
      tls_in_parallel_region = was_inside;  // a failed region still ends
      throw;
    }
    tls_in_parallel_region = was_inside;
    return;
  }
  job_cv_.NotifyAll();

  RunChunks(job.get());  // the calling thread is worker zero

  {
    MutexLock lock(mu_);
    // Bounded by grid progress: every chunk increments finished_chunks,
    // and workers notify after draining the job.
    while (job->finished_chunks.load(std::memory_order_acquire) <
           job->num_chunks) {
      done_cv_.Wait(lock);  // lint:allow-blocking-wait (grid-progress-bounded)
    }
    if (job_ == job) job_ = nullptr;
  }

  std::exception_ptr error;
  {
    MutexLock lock(job->error_mu);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

double ThreadPool::ParallelReduceSum(
    int64_t total, int64_t grain,
    const std::function<double(int64_t, int64_t)>& fn) {
  const int64_t num_chunks = NumChunks(total, grain);
  if (num_chunks == 0) return 0.0;
  if (num_chunks == 1) return fn(0, total);

  std::vector<double> partial(static_cast<size_t>(num_chunks), 0.0);
  ParallelFor(total, grain,
              [&partial, &fn](int64_t begin, int64_t end, int64_t chunk) {
                partial[static_cast<size_t>(chunk)] = fn(begin, end);
              });
  return PairwiseSum(std::move(partial));
}

double ThreadPool::ParallelReduceMax(
    int64_t total, int64_t grain, double identity,
    const std::function<double(int64_t, int64_t)>& fn) {
  const int64_t num_chunks = NumChunks(total, grain);
  if (num_chunks == 0) return identity;
  if (num_chunks == 1) return fn(0, total);
  std::vector<double> partial(static_cast<size_t>(num_chunks), identity);
  ParallelFor(total, grain,
              [&partial, &fn](int64_t begin, int64_t end, int64_t chunk) {
                partial[static_cast<size_t>(chunk)] = fn(begin, end);
              });
  double best = identity;
  for (double value : partial) best = std::max(best, value);
  return best;
}

}  // namespace msopds
