#ifndef MSOPDS_SERVE_TOPK_H_
#define MSOPDS_SERVE_TOPK_H_

#include <cstdint>
#include <vector>

#include "serve/model_snapshot.h"
#include "util/logging.h"

namespace msopds {
namespace serve {

/// One recommendation candidate.
struct ScoredItem {
  int64_t item = 0;
  double score = 0.0;

  friend bool operator==(const ScoredItem& a, const ScoredItem& b) {
    return a.item == b.item && a.score == b.score;
  }
};

/// THE ranking order of every top-K list in the repo: higher score first,
/// equal scores broken toward the lower item id. Because (score, item) is
/// a total order with no equal keys, the top-K set and its order are
/// unique — independent of scan order, tiling, and thread count.
inline bool RanksBefore(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// 1-based rank of a candidate scored `candidate_score` among `n`
/// competitor scores, with ties favoring the candidate (the paper's
/// HitRate@k convention, tests/recsys/ranking_metrics_test.cc
/// "TiesFavorTheTarget"): rank = 1 + #(strictly greater competitors).
/// This is the candidate-set rank used by the offline attack metrics;
/// full-catalog lists use RanksBefore (item-id ties) instead.
int64_t RankWithTiesFavoringCandidate(double candidate_score,
                                      const double* competitor_scores,
                                      int64_t n);

/// Bounded best-K selector over a stream of (item, score) offers: a
/// size-K binary heap keyed by RanksBefore with the *worst* retained
/// candidate at the root, so each offer is O(log K) and the selection is
/// deterministic for any offer order.
class TopKSelector {
 public:
  explicit TopKSelector(int k);

  void Offer(int64_t item, double score);

  int k() const { return k_; }
  int64_t size() const { return static_cast<int64_t>(heap_.size()); }

  /// The selected candidates sorted best-first; the selector resets to
  /// empty.
  std::vector<ScoredItem> Take();

 private:
  int k_ = 0;
  std::vector<ScoredItem> heap_;
};

/// Selects the top-k of a dense score vector (scores[i] = score of item
/// i) through TopKSelector, skipping the ids in `excluded_sorted`
/// (ascending, may be null/empty). Shared by the offline metrics path
/// (recsys/metrics.h TopKItems) so online and offline rankings are one
/// implementation.
std::vector<ScoredItem> SelectTopK(const double* scores, int64_t num_items,
                                   int k, const int64_t* excluded_sorted,
                                   int64_t num_excluded);

struct TopKOptions {
  int k = 10;
  /// Skip items the user already rated (snapshot seen-CSR).
  bool exclude_seen = true;
};

/// Fixed-stride (k) batch of per-user recommendation lists. Users with
/// fewer than k candidates (exclusion can consume the whole catalog) get
/// counts[u] < k; padding slots hold item -1 / score 0.
struct TopKResult {
  int k = 0;
  std::vector<int64_t> items;   // [num_users * k]
  std::vector<double> scores;   // [num_users * k]
  std::vector<int64_t> counts;  // [num_users]

  const int64_t* ItemsForUser(int64_t u) const {
    return items.data() + u * k;
  }
  const double* ScoresForUser(int64_t u) const {
    return scores.data() + u * k;
  }
};

/// Packs per-user best-first lists into the fixed-stride layout.
TopKResult PackTopK(const std::vector<std::vector<ScoredItem>>& per_user,
                    int k);

/// Items per scoring tile of TopKForUsers: ScoreItems fills a stack
/// buffer of this many doubles per call, and the tile's item rows stay
/// cache-hot while every user of a chunk scores them. The tile size
/// never affects results — selection is order-independent.
inline constexpr int64_t kTopKItemTile = 256;

/// Blocked batched top-K scoring over a snapshot. The grid is user
/// chunks x fixed item blocks, so a batch smaller than the thread pool
/// still spreads the catalogue over every kernel thread. A cell scores
/// its block one cache-sized tile at a time, each user's tile in one
/// ModelSnapshot::ScoreItems call (one simd::RowDots for fp64, one DotI8
/// per item for int8), with the tile's item rows shared across the
/// chunk's users; seen-item exclusion rides the ascending scan with one
/// monotone CSR cursor per user. Each (user, block) keeps its best k, and
/// one TopKSelector per user merges the blocks' lists. Results are
/// bit-identical to Score() + SelectTopK at any thread count, tile or
/// block size (RanksBefore is a total order) for every precision. Every
/// user id must be in [0, snapshot.num_users()) (CHECKed before any
/// scoring; the serving engine answers bad ids with kInvalidArgument
/// instead).
TopKResult TopKForUsers(const ModelSnapshot& snapshot,
                        const std::vector<int64_t>& users,
                        const TopKOptions& options);

}  // namespace serve
}  // namespace msopds

#endif  // MSOPDS_SERVE_TOPK_H_
