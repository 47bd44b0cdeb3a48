#ifndef MSOPDS_UTIL_THREAD_POOL_H_
#define MSOPDS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace msopds {

/// Number of chunks in the fixed chunk grid for `total` elements at chunk
/// size `grain`. The grid is a pure function of (total, grain) — never of
/// the thread count — which is the cornerstone of the determinism
/// contract: every kernel partitions its work on this grid, each chunk
/// writes a disjoint output region (or produces one partial combined in
/// fixed chunk order), so results are bit-identical at any thread count.
int64_t NumChunks(int64_t total, int64_t grain);

/// The fixed-shape fold ParallelReduceSum applies to its per-chunk
/// partials: adjacent pairs are summed level by level and an odd tail is
/// carried unchanged (never "+ 0.0", which would lose -0.0). Returns 0.0
/// for no partials. Streaming replicas of a reduction (the out-of-core
/// MF loss) call it to stay bit-identical with the in-memory kernel.
double PairwiseSum(std::vector<double> partials);

/// Persistent worker-thread pool behind every parallel kernel.
///
/// Determinism contract (see DESIGN.md "Parallel runtime"):
///   - Work is split on the fixed chunk grid above; threads only decide
///     *which OS thread* executes a chunk, never what a chunk computes.
///   - Reductions combine per-chunk partials with a fixed-shape binary
///     tree over the chunk grid, so `MSOPDS_THREADS=1` and `=N` agree to
///     the last bit.
///   - No atomics touch payload data: scatter kernels bucket their edges
///     by destination chunk up front and each chunk owns its rows.
///
/// Fault behaviour matches the serial path: an MSOPDS_CHECK failure in a
/// worker aborts the process exactly like the serial loop would, and an
/// exception thrown by a chunk functor (test code; the library itself
/// does not throw) is captured, the region is cancelled, and the
/// lowest-indexed captured exception is rethrown on the calling thread.
///
/// The pool runs one region at a time. A ParallelFor issued from inside
/// a worker (or from inside another region on the calling thread), or
/// one issued while another caller's region holds the pool, runs its
/// chunks inline and serially — same grid, same results, no deadlock.
class ThreadPool {
 public:
  /// The process-wide pool used by all tensor kernels, sized by
  /// DefaultNumThreads() on first use.
  static ThreadPool& Global();

  /// MSOPDS_THREADS, a count in [1, kMaxThreads] (util/env.h); unset or
  /// invalid falls back to the hardware concurrency.
  static int DefaultNumThreads();

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Resizes the pool (1 = fully serial). Joins and respawns workers;
  /// must not be called from inside a parallel region. Values are
  /// clamped to [1, kMaxThreads].
  void SetNumThreads(int num_threads);

  /// True while the current thread is executing a chunk functor.
  static bool InParallelRegion();

  /// Runs fn(begin, end, chunk) over every chunk of the fixed grid.
  /// Chunks may run concurrently and in any order; fn must only write
  /// state owned by its chunk.
  void ParallelFor(int64_t total, int64_t grain,
                   const std::function<void(int64_t begin, int64_t end,
                                            int64_t chunk)>& fn);

  /// Deterministic sum reduction: evaluates fn(begin, end) per chunk
  /// (possibly concurrently), then folds the partials with a fixed
  /// binary tree over the chunk grid. Single-chunk grids degenerate to a
  /// plain serial call, so small inputs are bit-identical to pre-pool
  /// code.
  double ParallelReduceSum(int64_t total, int64_t grain,
                           const std::function<double(int64_t begin,
                                                      int64_t end)>& fn);

  /// Like ParallelReduceSum but folds with max (exact for doubles, so
  /// the tree shape is irrelevant; kept on the same grid for symmetry).
  /// Returns `identity` for empty ranges.
  double ParallelReduceMax(int64_t total, int64_t grain, double identity,
                           const std::function<double(int64_t begin,
                                                      int64_t end)>& fn);

  static constexpr int kMaxThreads = 256;

 private:
  struct Job;

  void WorkerLoop() MSOPDS_EXCLUDES(mu_);
  static void RunChunks(Job* job);
  void StartWorkers() MSOPDS_EXCLUDES(mu_);
  void StopWorkers() MSOPDS_EXCLUDES(mu_);

  // Pool shape: only mutated by SetNumThreads() with every worker
  // joined, and read by ParallelFor() callers that are externally
  // serialized against resizing (the pool rejects nested regions).
  int num_threads_ = 1;              // determinism-lint: unguarded(mutated only with workers joined)
  std::vector<std::thread> workers_;  // determinism-lint: unguarded(mutated only with workers joined)

  Mutex mu_;
  CondVar job_cv_;    // workers wait here for a job
  CondVar done_cv_;   // the caller waits here for chunks
  std::shared_ptr<Job> job_ MSOPDS_GUARDED_BY(mu_);  // current region
  bool stopping_ MSOPDS_GUARDED_BY(mu_) = false;
};

}  // namespace msopds

#endif  // MSOPDS_UTIL_THREAD_POOL_H_
