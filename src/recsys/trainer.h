#ifndef MSOPDS_RECSYS_TRAINER_H_
#define MSOPDS_RECSYS_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "recsys/rating_model.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"
#include "util/status.h"

namespace msopds {

/// Training options (paper Eq. (1): minimize MSE + L2 to convergence).
/// Every fit runs Adam under the numerical-health guard: an epoch whose
/// loss or gradients are non-finite, or whose loss diverges, is rolled
/// back (parameters restored to their pre-epoch values) and retried at
/// half the learning rate, up to `max_retries` times per run. The guard
/// changes nothing on a healthy run: the update sequence is identical.
struct TrainOptions {
  int epochs = 60;
  double learning_rate = 0.05;
  /// Kernel thread count for this run: > 0 resizes the global ThreadPool
  /// before training (overriding MSOPDS_THREADS); 0 leaves the pool
  /// untouched. Results are bit-identical at any setting — the parallel
  /// runtime's determinism contract (DESIGN.md "Parallel runtime").
  int num_threads = 0;
  int max_retries = 3;
};

/// Outcome of a training run.
struct TrainResult {
  std::vector<double> loss_history;
  double final_loss = 0.0;

  /// Epochs rolled back and retried by the numerical-health guard.
  int retries = 0;
  /// Unhealthy epochs observed (non-finite loss/gradients or divergence),
  /// including the final one when the retry budget ran out.
  int fault_events = 0;
  /// False when the retry budget was exhausted; the model then holds the
  /// last healthy parameters (training stopped early) and `failure`
  /// describes the terminal event.
  bool healthy = true;
  std::string failure;
};

/// One full-batch pass at the current parameters: returns the loss and,
/// when `grads` is non-null, fills the empty `*grads` with one gradient
/// tensor per parameter. A null `grads` asks for the loss only (the
/// final-loss pass). An error status aborts training and is returned as
/// is.
using LossAndGrads =
    std::function<StatusOr<double>(std::vector<Tensor>* grads)>;

/// The epoch driver every full-batch fit shares. Per epoch it snapshots
/// `params`, calls `loss_and_grads`, runs the trainer fault hook, checks
/// the loss and gradients for non-finite values and the loss for
/// divergence, and then either takes one Adam step or rolls the epoch
/// back and retries it at half the learning rate. After the last epoch
/// it evaluates the final loss; a non-finite one marks the run
/// unhealthy (the "no silent NaN" contract). Invalid options yield
/// InvalidArgument.
StatusOr<TrainResult> TrainEpochs(std::vector<Variable>* params,
                                  const TrainOptions& options,
                                  const LossAndGrads& loss_and_grads);

/// Full-batch first-order training of any RatingModel. This is the
/// *victim* training path: gradients are detached each step (no unrolled
/// graph), unlike the PDS surrogate's recorded inner loop. A NaN injected
/// into any step — real or via FaultInjector — can never reach the
/// returned parameters: the epoch is rolled back and retried at a lower
/// learning rate, and exhaustion is reported in the TrainResult instead
/// of returning NaNs. Options must be valid (checked).
TrainResult TrainModel(RatingModel* model, const std::vector<Rating>& ratings,
                       const TrainOptions& options = {});

}  // namespace msopds

#endif  // MSOPDS_RECSYS_TRAINER_H_
