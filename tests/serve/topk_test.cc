#include "serve/topk.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/model_snapshot.h"
#include "tensor/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace msopds {
namespace serve {
namespace {

// Hand-built snapshot: scores are u·i dot products over dim 1, i.e.
// score(u, i) = user_factor[u] * item_factor[i] — easy to reason about.
std::shared_ptr<const ModelSnapshot> TinySnapshot(
    int64_t num_users, int64_t num_items, std::vector<double> user_factors,
    std::vector<double> item_factors, std::vector<Rating> seen_ratings = {}) {
  SeenItemsCsr seen =
      SeenItemsCsr::FromRatings(num_users, num_items, seen_ratings);
  return std::make_shared<const ModelSnapshot>(
      num_users, num_items, /*dim=*/1, std::move(user_factors),
      std::move(item_factors), std::vector<double>{}, std::vector<double>{},
      /*offset=*/0.0, std::move(seen), SnapshotOptions{});
}

TEST(RanksBeforeTest, TotalOrderScoreThenItemId) {
  EXPECT_TRUE(RanksBefore({1, 2.0}, {0, 1.0}));
  EXPECT_FALSE(RanksBefore({0, 1.0}, {1, 2.0}));
  // Equal scores: lower item id wins.
  EXPECT_TRUE(RanksBefore({3, 1.5}, {7, 1.5}));
  EXPECT_FALSE(RanksBefore({7, 1.5}, {3, 1.5}));
}

TEST(TopKSelectorTest, KeepsBestKInOrder) {
  TopKSelector selector(3);
  const double scores[] = {0.1, 0.9, 0.5, 0.7, 0.3, 0.9};
  for (int64_t i = 0; i < 6; ++i) selector.Offer(i, scores[i]);
  const std::vector<ScoredItem> top = selector.Take();
  ASSERT_EQ(top.size(), 3u);
  // 0.9 twice (items 1, 5; lower id first), then 0.7 (item 3).
  EXPECT_EQ(top[0], (ScoredItem{1, 0.9}));
  EXPECT_EQ(top[1], (ScoredItem{5, 0.9}));
  EXPECT_EQ(top[2], (ScoredItem{3, 0.7}));
}

TEST(TopKSelectorTest, SelectionIndependentOfOfferOrder) {
  const std::vector<double> scores = {0.4, 0.8, 0.8, 0.2, 0.6, 0.1, 0.8};
  TopKSelector forward(4), backward(4);
  for (int64_t i = 0; i < 7; ++i) forward.Offer(i, scores[i]);
  for (int64_t i = 6; i >= 0; --i) backward.Offer(i, scores[i]);
  EXPECT_EQ(forward.Take(), backward.Take());
}

TEST(SelectTopKTest, DuplicateScoresBreakTiesByItemId) {
  // All items score the same: the top-k must be the k lowest ids.
  const std::vector<double> scores(8, 2.5);
  const std::vector<ScoredItem> top =
      SelectTopK(scores.data(), 8, 3, nullptr, 0);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 0);
  EXPECT_EQ(top[1].item, 1);
  EXPECT_EQ(top[2].item, 2);
}

TEST(SelectTopKTest, ExclusionSkipsSeenItems) {
  const std::vector<double> scores = {0.9, 0.8, 0.7, 0.6};
  const std::vector<int64_t> seen = {0, 2};
  const std::vector<ScoredItem> top =
      SelectTopK(scores.data(), 4, 2, seen.data(),
                 static_cast<int64_t>(seen.size()));
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 1);
  EXPECT_EQ(top[1].item, 3);
}

TEST(SelectTopKTest, KLargerThanUnseenReturnsShortList) {
  const std::vector<double> scores = {0.9, 0.8, 0.7};
  const std::vector<int64_t> seen = {1};
  const std::vector<ScoredItem> top =
      SelectTopK(scores.data(), 3, 10, seen.data(), 1);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 0);
  EXPECT_EQ(top[1].item, 2);
}

TEST(SelectTopKTest, AllItemsSeenReturnsEmpty) {
  const std::vector<double> scores = {0.9, 0.8};
  const std::vector<int64_t> seen = {0, 1};
  EXPECT_TRUE(SelectTopK(scores.data(), 2, 5, seen.data(), 2).empty());
}

TEST(PackTopKTest, PadsShortListsWithSentinels) {
  const std::vector<std::vector<ScoredItem>> per_user = {
      {{4, 0.9}, {1, 0.5}},
      {},
  };
  const TopKResult result = PackTopK(per_user, 3);
  EXPECT_EQ(result.k, 3);
  ASSERT_EQ(result.counts.size(), 2u);
  EXPECT_EQ(result.counts[0], 2);
  EXPECT_EQ(result.counts[1], 0);
  EXPECT_EQ(result.ItemsForUser(0)[0], 4);
  EXPECT_EQ(result.ItemsForUser(0)[1], 1);
  EXPECT_EQ(result.ItemsForUser(0)[2], -1);
  EXPECT_EQ(result.ItemsForUser(1)[0], -1);
  EXPECT_EQ(result.ScoresForUser(0)[0], 0.9);
  EXPECT_EQ(result.ScoresForUser(0)[2], 0.0);
}

// --- Batched kernel over a snapshot ---

TEST(TopKForUsersTest, UserWithEveryItemSeenGetsEmptyList) {
  std::vector<Rating> seen;
  for (int64_t i = 0; i < 4; ++i) seen.push_back({0, i, 5.0});
  auto snapshot = TinySnapshot(2, 4, {1.0, 1.0}, {0.4, 0.3, 0.2, 0.1}, seen);
  TopKOptions options;
  options.k = 3;
  const TopKResult result = TopKForUsers(*snapshot, {0, 1}, options);
  EXPECT_EQ(result.counts[0], 0);
  EXPECT_EQ(result.ItemsForUser(0)[0], -1);
  // User 1 saw nothing: full list, best first.
  EXPECT_EQ(result.counts[1], 3);
  EXPECT_EQ(result.ItemsForUser(1)[0], 0);
  EXPECT_EQ(result.ItemsForUser(1)[1], 1);
  EXPECT_EQ(result.ItemsForUser(1)[2], 2);
}

TEST(TopKForUsersTest, EmptyHistoryAndExclusionDisabled) {
  std::vector<Rating> seen = {{0, 0, 5.0}};
  auto snapshot = TinySnapshot(1, 3, {1.0}, {0.9, 0.5, 0.1}, seen);
  TopKOptions exclude;
  exclude.k = 3;
  const TopKResult with = TopKForUsers(*snapshot, {0}, exclude);
  EXPECT_EQ(with.counts[0], 2);
  EXPECT_EQ(with.ItemsForUser(0)[0], 1);
  TopKOptions keep;
  keep.k = 3;
  keep.exclude_seen = false;
  const TopKResult without = TopKForUsers(*snapshot, {0}, keep);
  EXPECT_EQ(without.counts[0], 3);
  EXPECT_EQ(without.ItemsForUser(0)[0], 0);
}

TEST(TopKForUsersTest, DuplicateScoresOrderedByItemIdAcrossTiles) {
  // 600 items (> one 256-item tile) all scoring identically: the top-k
  // must be ids 0..k-1 regardless of tiling.
  const int64_t num_items = 600;
  std::vector<double> item_factors(static_cast<size_t>(num_items), 1.0);
  auto snapshot = TinySnapshot(1, num_items, {1.0}, std::move(item_factors));
  TopKOptions options;
  options.k = 5;
  const TopKResult result = TopKForUsers(*snapshot, {0}, options);
  ASSERT_EQ(result.counts[0], 5);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.ItemsForUser(0)[i], i);
  }
}

// Runs TopKForUsers over every user of `snapshot` at 1, 2 and 4 kernel
// threads and on the forced scalar backend, and checks each run bit for
// bit against Score() + SelectTopK per user.
void ExpectEveryRunMatchesScoreAndSelectTopK(const ModelSnapshot& snapshot,
                                             const TopKOptions& options,
                                             const std::string& input) {
  std::vector<int64_t> users;
  std::vector<std::vector<ScoredItem>> reference;
  for (int64_t u = 0; u < snapshot.num_users(); ++u) {
    std::vector<double> scores;
    for (int64_t i = 0; i < snapshot.num_items(); ++i) {
      scores.push_back(snapshot.Score(u, i));
    }
    users.push_back(u);
    reference.push_back(SelectTopK(scores.data(), snapshot.num_items(),
                                   options.k, snapshot.seen().Row(u),
                                   snapshot.seen().RowSize(u)));
  }
  ThreadPool& pool = ThreadPool::Global();
  const int previous = pool.num_threads();
  std::vector<std::pair<std::string, TopKResult>> runs;
  for (const int threads : {1, 2, 4}) {
    pool.SetNumThreads(threads);
    runs.emplace_back("threads " + std::to_string(threads),
                      TopKForUsers(snapshot, users, options));
  }
  pool.SetNumThreads(1);
  const simd::Backend backend =
      simd::internal::SetBackendForTesting(simd::Backend::kScalar);
  runs.emplace_back("scalar backend", TopKForUsers(snapshot, users, options));
  simd::internal::SetBackendForTesting(backend);
  pool.SetNumThreads(previous);

  for (const auto& [run, result] : runs) {
    for (int64_t u = 0; u < snapshot.num_users(); ++u) {
      const std::vector<ScoredItem>& want = reference[static_cast<size_t>(u)];
      ASSERT_EQ(result.counts[u], static_cast<int64_t>(want.size()))
          << input << ", " << run << ", user " << u;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(result.ItemsForUser(u)[r], want[r].item)
            << input << ", " << run << ", user " << u << " rank " << r;
        EXPECT_EQ(std::bit_cast<uint64_t>(result.ScoresForUser(u)[r]),
                  std::bit_cast<uint64_t>(want[r].score))
            << input << ", " << run << ", user " << u << " rank " << r;
      }
    }
  }
}

// A catalogue of two full 4,096-item blocks and a remainder, with both
// biases and an offset. Items 0, 255, 256, 4095, 4096 and the last one
// (tile and block edges) carry a large bias, so they top every list in
// which they are not seen; odd users have seen them.
std::shared_ptr<const ModelSnapshot> MultiBlockSnapshot(int64_t dim) {
  const int64_t num_users = 11, num_items = 9001;
  const std::vector<int64_t> edges = {0, 255, 256, 4095, 4096, num_items - 1};
  Rng rng(static_cast<uint64_t>(dim));
  std::vector<double> user_factors(static_cast<size_t>(num_users * dim));
  std::vector<double> item_factors(static_cast<size_t>(num_items * dim));
  std::vector<double> user_bias(static_cast<size_t>(num_users));
  std::vector<double> item_bias(static_cast<size_t>(num_items));
  for (double& v : user_factors) v = rng.Normal();
  for (double& v : item_factors) v = rng.Normal();
  for (double& v : user_bias) v = rng.Normal() * 0.1;
  for (double& v : item_bias) v = rng.Normal() * 0.1;
  for (const int64_t item : edges) item_bias[static_cast<size_t>(item)] += 1e3;
  std::vector<Rating> seen;
  for (int64_t u = 0; u < num_users; ++u) {
    if (u % 2 == 1) {
      for (const int64_t item : edges) seen.push_back({u, item, 4.0});
    }
    for (int64_t i = u * 7 + 1; i < num_items; i += 613) {
      seen.push_back({u, i, 3.0});
    }
  }
  return std::make_shared<const ModelSnapshot>(
      num_users, num_items, dim, std::move(user_factors),
      std::move(item_factors), std::move(user_bias), std::move(item_bias),
      /*offset=*/0.375,
      SeenItemsCsr::FromRatings(num_users, num_items, seen),
      SnapshotOptions{});
}

TEST(TopKForUsersTest, MatchesSelectTopKAndIsThreadCountInvariant) {
  const int64_t num_users = 37, num_items = 801;
  std::vector<double> user_factors, item_factors;
  // Deterministic pseudo-random factors without an RNG dependency.
  for (int64_t u = 0; u < num_users; ++u) {
    user_factors.push_back(static_cast<double>((u * 37 + 11) % 101) / 101.0);
  }
  for (int64_t i = 0; i < num_items; ++i) {
    item_factors.push_back(static_cast<double>((i * 53 + 29) % 211) / 211.0);
  }
  std::vector<Rating> seen;
  for (int64_t u = 0; u < num_users; ++u) {
    for (int64_t i = u; i < num_items; i += 97) seen.push_back({u, i, 4.0});
  }
  auto snapshot = TinySnapshot(num_users, num_items, user_factors,
                               item_factors, seen);
  TopKOptions options;
  options.k = 12;
  ExpectEveryRunMatchesScoreAndSelectTopK(*snapshot, options,
                                          "dim 1, 801 items");

  // Blocks of the catalogue, RowDots' four-wide body, biases, offset.
  for (const int64_t dim : {int64_t{8}, int64_t{32}}) {
    ExpectEveryRunMatchesScoreAndSelectTopK(
        *MultiBlockSnapshot(dim), options,
        "dim " + std::to_string(dim) + ", 9001 items");
  }
}

TEST(RankWithTiesTest, TiesFavorTheCandidate) {
  const std::vector<double> competitors = {2.0, 1.0, 1.0, 0.5};
  // One strictly greater, two equal: rank 2 (ties don't push down).
  EXPECT_EQ(RankWithTiesFavoringCandidate(1.0, competitors.data(), 4), 2);
  EXPECT_EQ(RankWithTiesFavoringCandidate(3.0, competitors.data(), 4), 1);
  EXPECT_EQ(RankWithTiesFavoringCandidate(0.0, competitors.data(), 4), 5);
}

}  // namespace
}  // namespace serve
}  // namespace msopds
