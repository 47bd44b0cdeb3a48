#include "recsys/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace msopds {
namespace {

double Clamp(double value) {
  return std::min(kMaxRating, std::max(kMinRating, value));
}

}  // namespace

double AverageTargetRating(RatingModel* model,
                           const std::vector<int64_t>& audience,
                           int64_t target_item) {
  MSOPDS_CHECK(model != nullptr);
  MSOPDS_CHECK(!audience.empty());
  const std::vector<int64_t> items(audience.size(), target_item);
  const Tensor predictions = model->PredictPairs(audience, items);
  double total = 0.0;
  for (int64_t i = 0; i < predictions.size(); ++i) {
    total += Clamp(predictions.at(i));
  }
  return total / static_cast<double>(predictions.size());
}

namespace {

// Target rank per audience member (1 = best; ties favor the target, the
// paper's convention) through the shared serve/topk rank primitive. One
// batched prediction call: for each user, target then competitors.
std::vector<int> TargetRanks(RatingModel* model,
                             const std::vector<int64_t>& audience,
                             int64_t target_item,
                             const std::vector<int64_t>& compete) {
  MSOPDS_CHECK(model != nullptr);
  MSOPDS_CHECK(!audience.empty());
  const int64_t block = 1 + static_cast<int64_t>(compete.size());
  std::vector<int64_t> users, items;
  users.reserve(audience.size() * static_cast<size_t>(block));
  items.reserve(users.capacity());
  for (int64_t user : audience) {
    users.insert(users.end(), static_cast<size_t>(block), user);
    items.push_back(target_item);
    items.insert(items.end(), compete.begin(), compete.end());
  }
  const Tensor predictions = model->PredictPairs(users, items);
  const ConstTensorSpan scores = predictions.span();
  std::vector<int> ranks;
  ranks.reserve(audience.size());
  for (size_t a = 0; a < audience.size(); ++a) {
    const int64_t offset = static_cast<int64_t>(a) * block;
    ranks.push_back(static_cast<int>(serve::RankWithTiesFavoringCandidate(
        scores[offset], scores.begin() + offset + 1, block - 1)));
  }
  return ranks;
}

}  // namespace

double HitRateAtK(RatingModel* model, const std::vector<int64_t>& audience,
                  int64_t target_item, const std::vector<int64_t>& compete,
                  int k) {
  MSOPDS_CHECK_GT(k, 0);
  const std::vector<int> ranks =
      TargetRanks(model, audience, target_item, compete);
  int64_t hits = 0;
  for (int rank : ranks) {
    if (rank <= k) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(ranks.size());
}

double Rmse(RatingModel* model, const std::vector<Rating>& ratings) {
  MSOPDS_CHECK(model != nullptr);
  MSOPDS_CHECK(!ratings.empty());
  std::vector<int64_t> users, items;
  users.reserve(ratings.size());
  items.reserve(ratings.size());
  for (const Rating& r : ratings) {
    users.push_back(r.user);
    items.push_back(r.item);
  }
  const Tensor predictions = model->PredictPairs(users, items);
  double total = 0.0;
  for (size_t i = 0; i < ratings.size(); ++i) {
    const double error =
        predictions.at(static_cast<int64_t>(i)) - ratings[i].value;
    total += error * error;
  }
  return std::sqrt(total / static_cast<double>(ratings.size()));
}

serve::TopKResult TopKItems(RatingModel* model, const Dataset& dataset,
                            const std::vector<int64_t>& users,
                            const serve::TopKOptions& options) {
  MSOPDS_CHECK(model != nullptr);
  MSOPDS_CHECK_GT(options.k, 0);
  const int64_t num_items = dataset.num_items;
  const serve::SeenItemsCsr seen = serve::SeenItemsCsr::FromRatings(
      dataset.num_users, num_items, dataset.ratings);

  std::vector<int64_t> catalog(static_cast<size_t>(num_items));
  for (int64_t i = 0; i < num_items; ++i) {
    catalog[static_cast<size_t>(i)] = i;
  }

  std::vector<std::vector<serve::ScoredItem>> per_user(users.size());
  for (size_t a = 0; a < users.size(); ++a) {
    const int64_t user = users[a];
    MSOPDS_CHECK_GE(user, 0);
    MSOPDS_CHECK_LT(user, dataset.num_users);
    // One PredictPairs call per user over the whole catalog (one forward
    // pass each for the GNN models), then the shared selection kernel.
    const std::vector<int64_t> repeated(static_cast<size_t>(num_items), user);
    const Tensor scores = model->PredictPairs(repeated, catalog);
    per_user[a] = serve::SelectTopK(
        scores.data(), num_items, options.k,
        options.exclude_seen ? seen.Row(user) : nullptr,
        options.exclude_seen ? seen.RowSize(user) : 0);
  }
  return serve::PackTopK(per_user, options.k);
}

}  // namespace msopds
