#ifndef MSOPDS_CORE_PDS_SURROGATE_H_
#define MSOPDS_CORE_PDS_SURROGATE_H_

#include <memory>
#include <vector>

#include "attack/capacity.h"
#include "data/dataset.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace msopds {

/// Hyperparameters of the Progressive Differentiable Surrogate.
struct PdsConfig {
  int64_t embedding_dim = 8;
  double init_stddev = 0.1;
  /// lambda of paper Eq. (1).
  double l2 = 1e-4;
  /// Inner (recorded) SGD step size.
  double inner_learning_rate = 0.5;
  /// L of Algorithm 1: recorded training steps per evaluation.
  int inner_steps = 5;
  /// Graph-convolution layers of Eq. (15) ("iteratively computes");
  /// candidate-edge selection weights regulate every layer.
  int num_layers = 1;
  /// Predictions are offset + <h_u^f, h_i^f>.
  double prediction_offset = 3.0;
};

/// Progressive Differentiable Surrogate (paper §IV-C).
///
/// Built once over the *fully poisoned* records R' and graph G'
/// (Algorithm 1 step 2): every candidate action of every player is
/// inserted up front and regulated at evaluation time by the binarized
/// importance vectors. Candidate poison edges enter the graph convolution
/// with per-edge selection weights 1_C = x-hat (Eq. (15)); candidate
/// poison ratings enter the training loss modulated by x-hat (Eq. (16)).
/// TrainUnrolled() records `inner_steps` SGD steps so first- and
/// second-order derivatives w.r.t. every x-hat can be backpropagated
/// through the training process (Algorithm 1 steps 6-10).
class PdsSurrogate {
 public:
  /// `capacities[p]` is player p's candidate set; pointers must outlive
  /// the surrogate. The parameter initialization is drawn once from `rng`
  /// and reused by every TrainUnrolled call (deterministic evaluations).
  PdsSurrogate(const Dataset& world,
               std::vector<const CapacitySet*> capacities,
               const PdsConfig& config, Rng* rng);

  int64_t num_players() const {
    return static_cast<int64_t>(capacities_.size());
  }
  const PdsConfig& config() const { return config_; }

  /// Final embeddings after the recorded inner training loop.
  struct Outcome {
    Variable user_final;  // [U, D]
    Variable item_final;  // [I, D]
  };

  /// Runs the recorded unrolled training given each player's binarized
  /// importance Variable (aligned with that player's capacity set).
  Outcome TrainUnrolled(const std::vector<Variable>& xhats) const;

  /// Differentiable predictions for aligned (users[k], items[k]) pairs.
  Variable Predict(const Outcome& outcome, const std::vector<int64_t>& users,
                   const std::vector<int64_t>& items) const;

  /// Numerical-health diagnostic: non-finite inner-loop losses observed
  /// across all TrainUnrolled calls (real failures and injected faults).
  int64_t non_finite_inner_events() const { return non_finite_inner_events_; }

 private:
  struct GraphBundle {
    IndexVec dst;
    IndexVec src;
    /// Per-player gather indices into the importance vector for the
    /// candidate-edge tail of (dst, src); base edges come first.
    std::vector<IndexVec> player_gather;
    /// Constant per-edge 1/deg(dst) normalization (full poisoned graph).
    Tensor coefficients;
    int64_t num_base_edges = 0;
    int64_t num_nodes = 0;
  };

  /// Edge-weight vector: ones for base edges, gathered x-hat entries for
  /// candidates, all scaled by the degree normalization.
  Variable EdgeWeights(const GraphBundle& bundle,
                       const std::vector<Variable>& xhats) const;

  /// Training loss of Eq. (16) given current parameters.
  Variable TrainLoss(const std::vector<Variable>& theta,
                     const Variable& social_weights,
                     const Variable& item_weights,
                     const std::vector<Variable>& xhats) const;

  /// Graph convolution of Eq. (15) -> final embeddings.
  Outcome Forward(const std::vector<Variable>& theta,
                  const Variable& social_weights,
                  const Variable& item_weights) const;

  PdsConfig config_;
  std::vector<const CapacitySet*> capacities_;
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;

  GraphBundle social_;
  GraphBundle item_;

  // Base (already public) ratings.
  IndexVec base_users_;
  IndexVec base_items_;
  Tensor base_targets_;

  // Candidate poison ratings, per player.
  std::vector<IndexVec> poison_users_;
  std::vector<IndexVec> poison_items_;
  std::vector<Tensor> poison_targets_;
  std::vector<IndexVec> poison_gather_;

  // Fixed parameter initialization (theta_0).
  std::vector<Tensor> theta_init_;

  // Health diagnostic counter (TrainUnrolled is logically const).
  mutable int64_t non_finite_inner_events_ = 0;
};

}  // namespace msopds

#endif  // MSOPDS_CORE_PDS_SURROGATE_H_
