#ifndef MSOPDS_RECSYS_METRICS_H_
#define MSOPDS_RECSYS_METRICS_H_

#include <vector>

#include "recsys/rating_model.h"
#include "serve/topk.h"

namespace msopds {

/// Average predicted rating of `target_item` over the target audience
/// (paper metric r-bar, §VI-A6). Predictions are clamped to the valid
/// rating range [1, 5] before averaging.
double AverageTargetRating(RatingModel* model,
                           const std::vector<int64_t>& audience,
                           int64_t target_item);

/// HitRate@k (paper §VI-A6): the fraction of the audience for whom the
/// target item ranks within the top-k positions against the competing
/// items (strictly-greater competitor predictions push the target down;
/// ties favor the target).
double HitRateAtK(RatingModel* model, const std::vector<int64_t>& audience,
                  int64_t target_item, const std::vector<int64_t>& compete,
                  int k = 3);

/// Root-mean-squared error of predictions over held-out ratings (used for
/// recommendation-quality sanity checks, not a paper attack metric).
double Rmse(RatingModel* model, const std::vector<Rating>& ratings);

/// Offline full-catalog top-K recommendation lists for `users`: scores
/// every item of `dataset` with PredictPairs and selects through the
/// shared serve/topk kernel (higher score first, ties broken toward the
/// lower item id, seen items excluded per `options`). This is the
/// reference ranking the online serving engine reproduces bit-identically
/// from a snapshot of the same model (serve/engine.h).
serve::TopKResult TopKItems(RatingModel* model, const Dataset& dataset,
                            const std::vector<int64_t>& users,
                            const serve::TopKOptions& options = {});

}  // namespace msopds

#endif  // MSOPDS_RECSYS_METRICS_H_
