// Tests of the deterministic parallel runtime (util/thread_pool):
// fixed chunk grid, bit-identical reductions at any thread count,
// exception propagation, and nested-parallelism rejection.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace msopds {
namespace {

TEST(NumChunksTest, GridIsPureFunctionOfTotalAndGrain) {
  EXPECT_EQ(NumChunks(0, 8), 0);
  EXPECT_EQ(NumChunks(1, 8), 1);
  EXPECT_EQ(NumChunks(8, 8), 1);
  EXPECT_EQ(NumChunks(9, 8), 2);
  EXPECT_EQ(NumChunks(64, 8), 8);
  EXPECT_EQ(NumChunks(65, 8), 9);
}

// The chunk boundaries handed to the functor must depend only on
// (total, grain), never on the thread count.
TEST(ThreadPoolTest, ChunkGridIndependentOfThreadCount) {
  constexpr int64_t kTotal = 1000;
  constexpr int64_t kGrain = 64;
  auto collect = [&](int threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::vector<int64_t>> chunks;
    pool.ParallelFor(kTotal, kGrain,
                     [&](int64_t begin, int64_t end, int64_t chunk) {
                       std::lock_guard<std::mutex> lock(mu);
                       chunks.push_back({chunk, begin, end});
                     });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = collect(1);
  EXPECT_EQ(serial.size(), static_cast<size_t>(NumChunks(kTotal, kGrain)));
  EXPECT_EQ(serial, collect(2));
  EXPECT_EQ(serial, collect(7));
}

TEST(ThreadPoolTest, ParallelForCoversEveryElementExactlyOnce) {
  constexpr int64_t kTotal = 4097;  // deliberately not a grain multiple
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(kTotal);
  pool.ParallelFor(kTotal, 256,
                   [&](int64_t begin, int64_t end, int64_t) {
                     for (int64_t i = begin; i < end; ++i) {
                       touched[static_cast<size_t>(i)].fetch_add(1);
                     }
                   });
  for (int64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(touched[static_cast<size_t>(i)].load(), 1) << "element " << i;
  }
}

TEST(ThreadPoolTest, ReduceSumBitIdenticalAcrossThreadCounts) {
  constexpr int64_t kTotal = 100000;
  constexpr int64_t kGrain = 1024;
  Rng rng(11);
  std::vector<double> values(kTotal);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0);
  auto chunk_sum = [&values](int64_t begin, int64_t end) {
    double s = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      s += values[static_cast<size_t>(i)];
    }
    return s;
  };
  auto reduce = [&](int threads) {
    ThreadPool pool(threads);
    return pool.ParallelReduceSum(kTotal, kGrain, chunk_sum);
  };
  const double serial = reduce(1);
  for (int threads : {2, 3, 7}) {
    const double parallel = reduce(threads);
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "threads=" << threads << ": " << serial << " vs " << parallel;
  }
}

// One-chunk grids must match a plain serial accumulation exactly, so
// small tensors keep their pre-pool numerics bit for bit.
TEST(ThreadPoolTest, SingleChunkReduceMatchesPlainLoop) {
  const std::vector<double> values = {0.1, -0.7, 0.3, 1e-17, 0.9};
  double plain = 0.0;
  for (double v : values) plain += v;
  ThreadPool pool(4);
  const double reduced = pool.ParallelReduceSum(
      static_cast<int64_t>(values.size()), 1024,
      [&values](int64_t begin, int64_t end) {
        double s = 0.0;
        for (int64_t i = begin; i < end; ++i) {
          s += values[static_cast<size_t>(i)];
        }
        return s;
      });
  EXPECT_EQ(std::memcmp(&plain, &reduced, sizeof(double)), 0);
}

TEST(ThreadPoolTest, ReduceMaxFindsGlobalMax) {
  constexpr int64_t kTotal = 50000;
  Rng rng(5);
  std::vector<double> values(kTotal);
  for (double& v : values) v = rng.Uniform(-10.0, 10.0);
  values[31337] = 99.5;
  ThreadPool pool(3);
  const double best = pool.ParallelReduceMax(
      kTotal, 512, -1e300, [&values](int64_t begin, int64_t end) {
        double m = -1e300;
        for (int64_t i = begin; i < end; ++i) {
          m = std::max(m, values[static_cast<size_t>(i)]);
        }
        return m;
      });
  EXPECT_EQ(best, 99.5);
}

TEST(ThreadPoolTest, ExceptionFromChunkPropagatesToCaller) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(1000, 64,
                         [](int64_t begin, int64_t, int64_t) {
                           if (begin == 640) {
                             throw std::runtime_error("chunk 10 failed");
                           }
                         }),
        std::runtime_error)
        << "threads=" << threads;
    EXPECT_FALSE(ThreadPool::InParallelRegion()) << "threads=" << threads;
    // The pool must stay usable after a failed region.
    std::atomic<int64_t> count{0};
    pool.ParallelFor(100, 10, [&count](int64_t begin, int64_t end, int64_t) {
      count.fetch_add(end - begin);
    });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, NestedParallelismRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 100;
  std::vector<int64_t> inner_sums(kOuter, 0);
  std::atomic<int> nested_regions_seen{0};
  pool.ParallelFor(kOuter, 1, [&](int64_t begin, int64_t, int64_t chunk) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // A nested ParallelFor is rejected as a parallel region: it runs its
    // chunks inline, serially, on this worker.
    int64_t local = 0;
    pool.ParallelFor(kInner, 16,
                     [&](int64_t inner_begin, int64_t inner_end, int64_t) {
                       EXPECT_TRUE(ThreadPool::InParallelRegion());
                       for (int64_t i = inner_begin; i < inner_end; ++i) {
                         local += i;
                       }
                     });
    inner_sums[static_cast<size_t>(begin)] = local;
    nested_regions_seen.fetch_add(1);
    (void)chunk;
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  EXPECT_EQ(nested_regions_seen.load(), kOuter);
  for (int64_t sum : inner_sums) {
    EXPECT_EQ(sum, kInner * (kInner - 1) / 2);
  }
}

TEST(ThreadPoolTest, SetNumThreadsClampsAndResizes) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  pool.SetNumThreads(0);
  EXPECT_EQ(pool.num_threads(), 1);
  pool.SetNumThreads(ThreadPool::kMaxThreads + 100);
  EXPECT_EQ(pool.num_threads(), ThreadPool::kMaxThreads);
  pool.SetNumThreads(2);
  std::atomic<int64_t> count{0};
  pool.ParallelFor(64, 4, [&count](int64_t begin, int64_t end, int64_t) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, DefaultNumThreadsHonorsEnvironment) {
  ::setenv("MSOPDS_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 5);
  ::setenv("MSOPDS_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  ::unsetenv("MSOPDS_THREADS");
  const int hardware = ThreadPool::DefaultNumThreads();
  EXPECT_GE(hardware, 1);
  // A count with trailing junk is invalid, not its leading digits.
  ::setenv("MSOPDS_THREADS", "4abc", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), hardware);
  ::unsetenv("MSOPDS_THREADS");
}

}  // namespace
}  // namespace msopds
