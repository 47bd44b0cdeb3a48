#ifndef MSOPDS_ATTACK_UNROLLED_SURROGATE_H_
#define MSOPDS_ATTACK_UNROLLED_SURROGATE_H_

#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/demographics.h"
#include "recsys/matrix_factorization.h"
#include "util/rng.h"

namespace msopds {

/// Options for gradient-based injection attacks that differentiate the
/// injection objective through unrolled matrix-factorization training
/// (the mechanism shared by the PGA [13] and RevAdv [3] baselines).
struct UnrolledMfOptions {
  MfConfig mf;
  /// Ordinary (detached) surrogate pre-training epochs.
  int pretrain_epochs = 30;
  double pretrain_learning_rate = 0.05;
  /// Recorded inner training steps differentiated through.
  int unroll_steps = 3;
  double inner_learning_rate = 0.5;
  /// Outer gradient iterations on the fake rating values.
  int outer_iterations = 8;
  double outer_learning_rate = 0.5;
  /// Re-pretrain the surrogate every `refresh_every` outer iterations
  /// (0 = never; RevAdv refreshes, PGA does not).
  int refresh_every = 0;
};

/// Optimizes the rating *values* of the fake (user, item) pairs to
/// minimize the Injection Attack loss (paper Eq. (3): maximize the average
/// predicted rating of the target item over all real users), by
/// backpropagating through `unroll_steps` recorded SGD steps of an MF
/// surrogate trained on `world` plus the fake pairs. Values are projected
/// into [1, 5] after every step; the target item's own fake ratings are
/// pinned at 5. Returns the optimized (still continuous) values aligned
/// with `fake_pairs`.
Tensor OptimizeFakeRatings(
    const Dataset& world, const Demographics& demo,
    const std::vector<std::pair<int64_t, int64_t>>& fake_pairs,
    const Tensor& initial_values, int64_t num_real_users,
    const UnrolledMfOptions& options, Rng* rng);

}  // namespace msopds

#endif  // MSOPDS_ATTACK_UNROLLED_SURROGATE_H_
