#include "serve/topk.h"

#include <algorithm>
#include <array>

#include "util/thread_pool.h"

namespace msopds {
namespace serve {
namespace {

// Items per block of the grid (16 tiles). Cutting the catalogue into
// fixed blocks gives a batch of fewer users than kernel threads a chunk
// per thread: a 16,384-item catalogue makes four blocks, enough for one
// user on a 4-thread pool. A catalogue of at most one block keeps a grid
// of user chunks alone.
constexpr int64_t kItemBlock = 16 * kTopKItemTile;

// Users per chunk of the grid: a handful of users share each tile's item
// rows. The grid (user chunks x item blocks) stays a pure function of
// the request and catalogue sizes (determinism contract,
// util/thread_pool.h).
constexpr int64_t kUserGrain = 8;

// Heap comparator: RanksBefore as "less" puts the worst retained
// candidate at the heap root (std::*_heap keep the max at the front).
bool WorstAtFront(const ScoredItem& a, const ScoredItem& b) {
  return RanksBefore(a, b);
}

// One cell of TopKForUsers' grid: the best-first list of items
// [item_begin, item_end) for each of the `width` (<= kUserGrain) users
// at `users`, into lists[0, width). The block is scored one tile at a
// time, every user in turn, so the tile's item rows are read while
// cache-hot.
void TopKOfBlock(const ModelSnapshot& snapshot, const int64_t* users,
                 size_t width, int64_t item_begin, int64_t item_end,
                 const TopKOptions& options, std::vector<ScoredItem>* lists) {
  MSOPDS_DCHECK_LE(static_cast<int64_t>(width), kUserGrain);
  std::vector<TopKSelector> selectors;
  selectors.reserve(width);
  std::array<ModelSnapshot::UserRef, kUserGrain> rows;
  // Each user's seen items from item_begin on: a monotone cursor rides
  // the ascending scan (both stay null when nothing is skipped).
  std::array<const int64_t*, kUserGrain> seen_next{};
  std::array<const int64_t*, kUserGrain> seen_end{};
  for (size_t u = 0; u < width; ++u) {
    selectors.emplace_back(options.k);
    rows[u] = snapshot.UserRefFor(users[u]);
    if (options.exclude_seen) {
      const int64_t* row = snapshot.seen().Row(users[u]);
      seen_end[u] = row + snapshot.seen().RowSize(users[u]);
      seen_next[u] = std::lower_bound(row, seen_end[u], item_begin);
    }
  }
  double scores[kTopKItemTile];
  for (int64_t tile = item_begin; tile < item_end; tile += kTopKItemTile) {
    const int64_t tile_end = std::min(tile + kTopKItemTile, item_end);
    for (size_t u = 0; u < width; ++u) {
      snapshot.ScoreItems(rows[u], users[u], tile, tile_end, scores);
      const int64_t*& next = seen_next[u];
      for (int64_t i = tile; i < tile_end; ++i) {
        while (next != seen_end[u] && *next < i) ++next;
        if (next != seen_end[u] && *next == i) continue;
        selectors[u].Offer(i, scores[i - tile]);
      }
    }
  }
  for (size_t u = 0; u < width; ++u) lists[u] = selectors[u].Take();
}

}  // namespace

int64_t RankWithTiesFavoringCandidate(double candidate_score,
                                      const double* competitor_scores,
                                      int64_t n) {
  int64_t better = 0;
  for (int64_t j = 0; j < n; ++j) {
    if (competitor_scores[j] > candidate_score) ++better;
  }
  return better + 1;
}

TopKSelector::TopKSelector(int k) : k_(k) {
  MSOPDS_CHECK_GT(k, 0);
  heap_.reserve(static_cast<size_t>(k));
}

void TopKSelector::Offer(int64_t item, double score) {
  const ScoredItem candidate{item, score};
  if (static_cast<int>(heap_.size()) < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), WorstAtFront);
    return;
  }
  if (!RanksBefore(candidate, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), WorstAtFront);
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(), WorstAtFront);
}

std::vector<ScoredItem> TopKSelector::Take() {
  std::vector<ScoredItem> out = std::move(heap_);
  heap_.clear();
  // The move stole the capacity; re-reserve so a reused selector never
  // reallocates mid-offer-stream.
  heap_.reserve(static_cast<size_t>(k_));
  std::sort(out.begin(), out.end(), RanksBefore);
  return out;
}

std::vector<ScoredItem> SelectTopK(const double* scores, int64_t num_items,
                                   int k, const int64_t* excluded_sorted,
                                   int64_t num_excluded) {
  TopKSelector selector(k);
  int64_t cursor = 0;
  for (int64_t i = 0; i < num_items; ++i) {
    while (cursor < num_excluded && excluded_sorted[cursor] < i) ++cursor;
    if (cursor < num_excluded && excluded_sorted[cursor] == i) continue;
    selector.Offer(i, scores[i]);
  }
  return selector.Take();
}

TopKResult PackTopK(const std::vector<std::vector<ScoredItem>>& per_user,
                    int k) {
  MSOPDS_CHECK_GT(k, 0);
  const int64_t n = static_cast<int64_t>(per_user.size());
  TopKResult result;
  result.k = k;
  result.items.assign(static_cast<size_t>(n * k), -1);
  result.scores.assign(static_cast<size_t>(n * k), 0.0);
  result.counts.assign(static_cast<size_t>(n), 0);
  for (int64_t u = 0; u < n; ++u) {
    const std::vector<ScoredItem>& list = per_user[static_cast<size_t>(u)];
    MSOPDS_CHECK_LE(static_cast<int>(list.size()), k);
    result.counts[static_cast<size_t>(u)] =
        static_cast<int64_t>(list.size());
    for (size_t r = 0; r < list.size(); ++r) {
      result.items[static_cast<size_t>(u * k) + r] = list[r].item;
      result.scores[static_cast<size_t>(u * k) + r] = list[r].score;
    }
  }
  return result;
}

TopKResult TopKForUsers(const ModelSnapshot& snapshot,
                        const std::vector<int64_t>& users,
                        const TopKOptions& options) {
  MSOPDS_CHECK_GT(options.k, 0);
  for (const int64_t user : users) {
    MSOPDS_CHECK_GE(user, 0);
    MSOPDS_CHECK_LT(user, snapshot.num_users());
  }
  const int64_t n = static_cast<int64_t>(users.size());
  const int64_t num_items = snapshot.num_items();
  TopKOptions sized = options;
  sized.k = TopKStride(options.k, num_items);
  const int64_t num_blocks = NumChunks(num_items, kItemBlock);
  // One best-first list per (block, user), block-major: each cell of the
  // grid writes the slots of its own users in its own block.
  std::vector<std::vector<ScoredItem>> block_lists(
      static_cast<size_t>(num_blocks * n));
  ThreadPool::Global().ParallelFor(
      NumChunks(n, kUserGrain) * num_blocks, 1,
      [&](int64_t begin, int64_t end, int64_t) {
        for (int64_t cell = begin; cell < end; ++cell) {
          const int64_t block = cell % num_blocks;
          const int64_t first_user = cell / num_blocks * kUserGrain;
          const int64_t item_begin = block * kItemBlock;
          TopKOfBlock(
              snapshot, users.data() + first_user,
              static_cast<size_t>(std::min(kUserGrain, n - first_user)),
              item_begin, std::min(item_begin + kItemBlock, num_items),
              sized,
              block_lists.data() + static_cast<size_t>(block * n + first_user));
        }
      });

  // RanksBefore is a total order, so the best k of the blocks' winners
  // are the best k of the catalogue.
  std::vector<std::vector<ScoredItem>> per_user(static_cast<size_t>(n));
  TopKSelector merged(sized.k);
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t block = 0; block < num_blocks; ++block) {
      for (const ScoredItem& candidate :
           block_lists[static_cast<size_t>(block * n + u)]) {
        merged.Offer(candidate.item, candidate.score);
      }
    }
    per_user[static_cast<size_t>(u)] = merged.Take();
  }
  return PackTopK(per_user, sized.k);
}

}  // namespace serve
}  // namespace msopds
