#ifndef MSOPDS_RECSYS_MATRIX_FACTORIZATION_H_
#define MSOPDS_RECSYS_MATRIX_FACTORIZATION_H_

#include <vector>

#include "data/dataset.h"
#include "recsys/rating_model.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace msopds {

/// Hyperparameters of the basic matrix-factorization recommender.
struct MfConfig {
  int64_t latent_dim = 8;
  double init_stddev = 0.1;
  double l2 = 1e-4;
};

/// Functional parameter bundle so attacks can unroll MF training with
/// fresh Variables per inner step (PGA / RevAdv surrogates).
struct MfParams {
  Variable user_factors;  // [U, D]
  Variable item_factors;  // [I, D]
  Variable user_bias;     // [U]
  Variable item_bias;     // [I]
  double global_mean = 3.0;

  std::vector<Variable> AsVector() const {
    return {user_factors, item_factors, user_bias, item_bias};
  }
};

/// Fresh randomly-initialized parameters.
MfParams MakeMfParams(int64_t num_users, int64_t num_items,
                      const MfConfig& config, double global_mean, Rng* rng);

/// Predicted ratings for aligned index vectors:
/// mu + b_u + b_i + <p_u, q_i>.
Variable MfPredict(const MfParams& params, const IndexVec& users,
                   const IndexVec& items);

/// MSE over (users, items, targets) plus L2 on all four parameter blocks.
/// `targets` may be a Variable (differentiable fake ratings) or a constant.
Variable MfLoss(const MfParams& params, const IndexVec& users,
                const IndexVec& items, const Variable& targets, double l2);

/// The baseline "basic RecSys" of the paper's related work (rating records
/// only — no graphs): biased matrix factorization trained with MSE + L2.
/// Surrogate model of the PGA and RevAdv baseline attacks.
class MatrixFactorization : public RatingModel {
 public:
  MatrixFactorization(int64_t num_users, int64_t num_items,
                      const MfConfig& config, double global_mean, Rng* rng);

  std::vector<Variable>* MutableParams() override { return &params_; }
  Variable TrainingLoss(const std::vector<Rating>& ratings) override;
  Tensor PredictPairs(const std::vector<int64_t>& users,
                      const std::vector<int64_t>& items) override;

  /// Factor tables, both bias vectors, and the global mean as the offset.
  ServingParams ExportServingParams() override;

  const MfConfig& config() const { return config_; }
  double global_mean() const { return global_mean_; }

  /// The current parameters as a functional bundle sharing this model's
  /// leaf Variables (the attacks read a trained surrogate through it).
  MfParams Bundle() const;

 private:
  MfConfig config_;
  double global_mean_;
  std::vector<Variable> params_;
};

}  // namespace msopds

#endif  // MSOPDS_RECSYS_MATRIX_FACTORIZATION_H_
