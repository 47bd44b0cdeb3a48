#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/matrix_factorization.h"
#include "recsys/metrics.h"
#include "recsys/trainer.h"
#include "serve/admission.h"
#include "serve/model_snapshot.h"
#include "serve/topk.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace msopds {
namespace serve {
namespace {

Dataset SmallWorld(uint64_t seed = 21) {
  SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 60;
  config.num_ratings = 500;
  config.num_social_links = 150;
  Rng rng(seed);
  return GenerateSynthetic(config, &rng);
}

// The correctness anchor of the serving subsystem: for every model kind,
// thread count, and arena mode, the engine's served lists must be
// BIT-IDENTICAL to the offline reference (recsys/metrics.h TopKItems)
// computed through the live model.
void ExpectServedListsMatchOffline(RatingModel* model, const Dataset& world) {
  std::vector<int64_t> users;
  for (int64_t u = 0; u < world.num_users; ++u) users.push_back(u);
  TopKOptions options;
  options.k = 7;
  const TopKResult offline = TopKItems(model, world, users, options);

  ServingEngine engine;
  engine.Publish(ModelSnapshot::FromModel(model, world));
  for (int64_t u = 0; u < world.num_users; ++u) {
    ServeRequest request;
    request.user = u;
    request.k = options.k;
    const ServeResponse response = engine.ServeSync(request);
    ASSERT_EQ(static_cast<int64_t>(response.items.size()),
              offline.counts[u]);
    for (size_t r = 0; r < response.items.size(); ++r) {
      EXPECT_EQ(response.items[r], offline.ItemsForUser(u)[r])
          << "user " << u << " rank " << r;
      EXPECT_EQ(response.scores[r], offline.ScoresForUser(u)[r])
          << "user " << u << " rank " << r;
    }
  }
}

void RunAnchorForAllModels(const Dataset& world) {
  {
    Rng rng(1);
    MatrixFactorization model(world.num_users, world.num_items, MfConfig{},
                              3.5, &rng);
    TrainOptions options;
    options.epochs = 5;
    TrainModel(&model, world.ratings, options);
    ExpectServedListsMatchOffline(&model, world);
  }
  {
    Rng rng(3);
    HetRecSys model(world, HetRecSysConfig{}, &rng);
    ExpectServedListsMatchOffline(&model, world);
  }
}

class EngineAnchorTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineAnchorTest, ServedListsMatchOfflineReference) {
  const Dataset world = SmallWorld();
  ThreadPool& pool = ThreadPool::Global();
  const int previous = pool.num_threads();
  pool.SetNumThreads(GetParam());
  RunAnchorForAllModels(world);
  pool.SetNumThreads(previous);
}

TEST_P(EngineAnchorTest, ServedListsMatchOfflineReferenceArenaOn) {
  const Dataset world = SmallWorld();
  ThreadPool& pool = ThreadPool::Global();
  const int previous = pool.num_threads();
  pool.SetNumThreads(GetParam());
  const bool arena_previous = Arena::Global().SetEnabled(true);
  RunAnchorForAllModels(world);
  Arena::Global().SetEnabled(arena_previous);
  pool.SetNumThreads(previous);
}

INSTANTIATE_TEST_SUITE_P(Threads, EngineAnchorTest, ::testing::Values(1, 4));

TEST(ServingEngineTest, RequestBeforePublishResolvesEmpty) {
  ServingEngine engine;
  const ServeResponse response = engine.ServeSync(ServeRequest{});
  EXPECT_TRUE(response.items.empty());
  EXPECT_EQ(response.snapshot_version, 0u);
  // No snapshot = degraded by definition; the marker keeps the
  // bit-identical guarantee scoped to full-fidelity responses.
  EXPECT_TRUE(response.served_degraded);
  EXPECT_EQ(response.degraded_reason, DegradedReason::kNoSnapshot);
}

// Every user scores item i as scale * (num_items - i): item 0 is best.
std::shared_ptr<const ModelSnapshot> TinySnapshot(uint64_t version,
                                                  double scale,
                                                  int64_t num_items = 32,
                                                  int64_t num_users = 8) {
  std::vector<double> user_factors(static_cast<size_t>(num_users), 1.0);
  std::vector<double> item_factors;
  for (int64_t i = 0; i < num_items; ++i) {
    item_factors.push_back(scale * static_cast<double>(num_items - i));
  }
  SnapshotOptions options;
  options.version = version;
  return std::make_shared<const ModelSnapshot>(
      num_users, num_items, /*dim=*/1, std::move(user_factors),
      std::move(item_factors), std::vector<double>{}, std::vector<double>{},
      /*offset=*/0.0, SeenItemsCsr::FromRatings(num_users, num_items, {}),
      options);
}

TEST(ServingEngineTest, ResponsesCarryThePublishedVersion) {
  ServingEngine engine;
  engine.Publish(TinySnapshot(7, 1.0));
  const ServeResponse response = engine.ServeSync(ServeRequest{});
  EXPECT_EQ(response.snapshot_version, 7u);
  ASSERT_FALSE(response.items.empty());
  EXPECT_EQ(response.items[0], 0);  // highest factor = item 0
}

TEST(ServingEngineTest, MicroBatcherGroupsConcurrentRequests) {
  EngineOptions options;
  options.max_batch_size = 16;
  options.max_wait_us = 20000;  // wide window so submissions coalesce
  ServingEngine engine(options);
  engine.Publish(TinySnapshot(1, 1.0));
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    ServeRequest request;
    request.user = i % 8;
    futures.push_back(engine.Submit(request));
  }
  for (auto& future : futures) future.get();
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 16);
  // 16 requests in a 20ms window must not take 16 singleton batches.
  EXPECT_LT(stats.batches, 16);
  EXPECT_GT(stats.mean_batch_size, 1.0);
}

TEST(ServingEngineTest, EnforcedDeadlineShedsLateRequests) {
  EngineOptions options;
  options.deadline_us = 1000;   // 1ms budget...
  options.max_wait_us = 20000;  // ...but batch pickup waits 20ms
  ServingEngine engine(options);
  engine.Publish(TinySnapshot(1, 1.0));
  const ServeResponse response = engine.ServeSync(ServeRequest{});
  // Deadlines are enforced, not advisory: the request is shed before any
  // scoring work, not served late with a flag.
  EXPECT_EQ(response.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(response.deadline_missed);
  EXPECT_TRUE(response.items.empty());
  const EngineStats stats = engine.Stats();
  EXPECT_GE(stats.deadline_misses, 1);
  EXPECT_EQ(stats.shed, 1);
}

TEST(ServingEngineTest, StopDrainsOutstandingRequests) {
  ServingEngine engine;
  engine.Publish(TinySnapshot(1, 1.0));
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(engine.Submit({}));
  engine.Stop();
  for (auto& future : futures) {
    EXPECT_FALSE(future.get().items.empty());
  }
}

// Hot-swap under concurrent traffic — the test TSan must pass: reader
// threads hammer ServeSync while the main thread republishes snapshots;
// every response must come from one of the published versions, and the
// swap itself must never block or tear.
TEST(ServingEngineTest, HotSwapUnderConcurrentTraffic) {
  ServingEngine engine;
  engine.Publish(TinySnapshot(1, 1.0));
  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad_versions{0};
  std::vector<std::thread> readers;
  const uint64_t max_version = 12;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        ServeRequest request;
        request.user = rng.UniformInt(8);
        const ServeResponse response = engine.ServeSync(request);
        if (response.snapshot_version < 1 ||
            response.snapshot_version > max_version) {
          bad_versions.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t version = 2; version <= max_version; ++version) {
    // Even versions span three item blocks of the top-K grid, so batches
    // run multi-chunk regions on the kernel pool while publishes land.
    const int64_t num_items = version % 2 == 0 ? 9000 : 32;
    engine.Publish(TinySnapshot(
        version, 1.0 / static_cast<double>(version), num_items));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  engine.Stop();
  EXPECT_EQ(bad_versions.load(), 0);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.publishes, static_cast<int64_t>(max_version));
  EXPECT_GT(stats.requests, 0);
}

// A malformed request is answered, not fatal: k <= 0 resolves at
// Submit, a user outside the batch's snapshot at pickup (including one
// a publish made invalid), and the engine goes on serving. None of them
// is retried.
TEST(ServingEngineTest, BadRequestsResolveInvalidArgumentAndServingGoesOn) {
  ServingEngine engine;
  engine.Publish(TinySnapshot(1, 1.0));
  RetryingClient client(&engine, RetryPolicy{}, /*seed=*/5);
  ServeRequest negative_user;
  negative_user.user = -1;
  ServeRequest past_last_user;
  past_last_user.user = 8;
  ServeRequest zero_k;
  zero_k.k = 0;
  for (const ServeRequest& bad : {negative_user, past_last_user, zero_k}) {
    const ServeResponse response = client.Serve(bad);
    EXPECT_EQ(response.status, ServeStatus::kInvalidArgument)
        << "user " << bad.user << ", k " << bad.k;
    EXPECT_TRUE(response.items.empty());
    EXPECT_FALSE(response.served_degraded);
  }
  ServeRequest good;
  good.user = 6;
  ServeResponse response = client.Serve(good);
  ASSERT_EQ(response.status, ServeStatus::kOk);
  EXPECT_FALSE(response.served_degraded);
  ASSERT_FALSE(response.items.empty());
  EXPECT_EQ(response.items[0], 0);

  // A publish shrinks the user count to 4: user 6 was valid a moment ago.
  engine.Publish(TinySnapshot(2, 1.0, /*num_items=*/32, /*num_users=*/4));
  EXPECT_EQ(client.Serve(good).status, ServeStatus::kInvalidArgument);
  good.user = 3;
  response = client.Serve(good);
  ASSERT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(response.snapshot_version, 2u);

  EXPECT_EQ(client.retries(), 0);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.invalid, 4);
  EXPECT_EQ(stats.requests, 6);
}

// A bad request shares its batch with a good one: the good one is
// served exactly as TopKForUsers scores it alone.
TEST(ServingEngineTest, BadRequestLeavesTheRestOfItsBatchServed) {
  EngineOptions options;
  options.max_batch_size = 2;      // the batch flushes when both queue
  options.max_wait_us = 10000000;  // ...and never on the window
  ServingEngine engine(options);
  const std::shared_ptr<const ModelSnapshot> snapshot =
      TinySnapshot(1, 1.0, /*num_items=*/9000);
  engine.Publish(snapshot);
  ServeRequest bad;
  bad.user = 8;
  ServeRequest good;
  good.user = 3;
  std::future<ServeResponse> bad_future = engine.Submit(bad);
  std::future<ServeResponse> good_future = engine.Submit(good);
  EXPECT_EQ(bad_future.get().status, ServeStatus::kInvalidArgument);
  const ServeResponse response = good_future.get();
  ASSERT_EQ(response.status, ServeStatus::kOk);
  EXPECT_FALSE(response.served_degraded);
  TopKOptions topk;
  topk.k = good.k;
  const TopKResult want = TopKForUsers(*snapshot, {good.user}, topk);
  EXPECT_EQ(response.items,
            std::vector<int64_t>(want.ItemsForUser(0),
                                 want.ItemsForUser(0) + want.counts[0]));
  EXPECT_EQ(response.scores,
            std::vector<double>(want.ScoresForUser(0),
                                want.ScoresForUser(0) + want.counts[0]));
  EXPECT_EQ(engine.Stats().batches, 1);
}

// A snapshot handed out before a swap stays valid after it: the engine's
// double buffer pins the retired snapshot, and the shared_ptr keeps it
// alive for holders beyond that.
TEST(ServingEngineTest, RetiredSnapshotStaysValidForHolders) {
  ServingEngine engine;
  engine.Publish(TinySnapshot(1, 1.0));
  const std::shared_ptr<const ModelSnapshot> held = engine.CurrentSnapshot();
  engine.Publish(TinySnapshot(2, 2.0));
  engine.Publish(TinySnapshot(3, 3.0));
  EXPECT_EQ(held->version(), 1u);
  EXPECT_EQ(held->Score(0, 0), 32.0);  // scale 1.0 * (32 - 0)
  EXPECT_EQ(engine.CurrentSnapshot()->version(), 3u);
}

// Regression for a latent join race surfaced by the thread-safety
// annotations: two concurrent Stop() calls could both observe the
// batcher thread joinable and both join it (UB). Stop() now swaps the
// thread handle out under queue_mu_, so exactly one caller joins and
// the rest (including the destructor's Stop()) return immediately.
TEST(ServingEngineTest, ConcurrentStopIsSafe) {
  for (int round = 0; round < 20; ++round) {
    ServingEngine engine;
    engine.Publish(TinySnapshot(1, 1.0));
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&engine] { engine.Stop(); });
    }
    for (std::thread& stopper : stoppers) stopper.join();
    // The destructor's Stop() must also be a no-op, not a double join.
  }
}

}  // namespace
}  // namespace serve
}  // namespace msopds
