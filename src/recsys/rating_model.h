#ifndef MSOPDS_RECSYS_RATING_MODEL_H_
#define MSOPDS_RECSYS_RATING_MODEL_H_

#include <vector>

#include "data/dataset.h"
#include "tensor/variable.h"

namespace msopds {

/// Dense scoring view of a trained model, sufficient to reproduce
/// PredictPairs for any (user, item) pair as
///
///   (((<user_factors[u], item_factors[i]>  (fixed 4-lane order over D,
///      + user_bias[u])                      simd::Dot — DESIGN.md §14)
///     + item_bias[i])                      (each bias skipped when
///    + offset)                              undefined)
///
/// with each partial sum associating exactly as the model's recorded op
/// sequence (PairDot = RowSum of stored products — the same 4-lane
/// reduction as simd::Dot — then Add / AddScalar), so a scorer that
/// follows this recipe is bit-identical to PredictPairs.
/// For factorization models these are the parameter tables themselves;
/// for the GNNs they are the *final* embeddings after the forward pass
/// (the graph convolutions are baked in at export time). The Tensors may
/// alias live training buffers — serving snapshots deep-copy them
/// (serve/model_snapshot.h).
///
/// The export is always full binary64 precision; quantized serving
/// (int8 snapshots, serve/quantize.h) rounds *after* this export,
/// once per publish, so every model feeds the quantizer through this one
/// interface and the bit-identical-to-PredictPairs recipe above stays
/// scoped to full-precision snapshots.
struct ServingParams {
  Tensor user_factors;  // [U, D]
  Tensor item_factors;  // [I, D]
  Tensor user_bias;     // [U]; undefined when the model has no user bias
  Tensor item_bias;     // [I]; undefined when the model has no item bias
  double offset = 0.0;
};

/// Interface of a trainable rating predictor (paper Eq. (1)): both the
/// Het-RecSys victim and the basic matrix-factorization model implement
/// it, so the Trainer and the evaluation metrics are model-agnostic.
class RatingModel {
 public:
  virtual ~RatingModel() = default;

  /// Trainable leaf parameters (theta). The Trainer mutates them in place.
  virtual std::vector<Variable>* MutableParams() = 0;

  /// Full training objective on `ratings` including regularization; the
  /// returned Variable carries the graph for backprop.
  virtual Variable TrainingLoss(const std::vector<Rating>& ratings) = 0;

  /// Predicted ratings for aligned (users[k], items[k]) pairs.
  virtual Tensor PredictPairs(const std::vector<int64_t>& users,
                              const std::vector<int64_t>& items) = 0;

  /// Dense view of the current parameters for the serving layer. The
  /// default CHECK-fails; every shipped model overrides it.
  virtual ServingParams ExportServingParams();
};

}  // namespace msopds

#endif  // MSOPDS_RECSYS_RATING_MODEL_H_
