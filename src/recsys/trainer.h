#ifndef MSOPDS_RECSYS_TRAINER_H_
#define MSOPDS_RECSYS_TRAINER_H_

#include <string>
#include <vector>

#include "recsys/rating_model.h"
#include "util/health.h"

namespace msopds {

/// Optimizer choice for full-batch training.
enum class OptimizerKind { kAdam, kSgd };

/// Training options (paper Eq. (1): minimize MSE + L2 to convergence).
struct TrainOptions {
  int epochs = 60;
  double learning_rate = 0.05;
  OptimizerKind optimizer = OptimizerKind::kAdam;
  double momentum = 0.9;  // only for kSgd
  /// Log loss every `log_every` epochs (0 = silent).
  int log_every = 0;
  /// Kernel thread count for this run: > 0 resizes the global ThreadPool
  /// before training (overriding MSOPDS_THREADS); 0 leaves the pool
  /// untouched. Results are bit-identical at any setting — the parallel
  /// runtime's determinism contract (DESIGN.md "Parallel runtime").
  int num_threads = 0;

  // --- Resilience (numerical-health guard + retry policy) ---
  /// Scan every epoch's loss and gradients for NaN/inf and watch the
  /// loss for divergence. An unhealthy epoch is rolled back (parameters
  /// restored to their pre-epoch values) and retried with the learning
  /// rate multiplied by `retry_decay` — exponential backoff across
  /// retries — up to `max_retries` times per run. The guard changes
  /// nothing on a healthy run: the update sequence is identical.
  bool guard_numerics = true;
  int max_retries = 3;
  double retry_decay = 0.5;
  DivergenceOptions divergence;
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

/// Full-batch first-order training of any RatingModel. This is the
/// *victim* training path: gradients are detached each step (no unrolled
/// graph), unlike the PDS surrogate's recorded inner loop. With
/// guard_numerics set (the default) a NaN injected into any step — real
/// or via FaultInjector — can never reach the returned parameters: the
/// epoch is rolled back and retried at a lower learning rate, and
/// exhaustion is reported in the TrainResult instead of returning NaNs.
TrainResult TrainModel(RatingModel* model, const std::vector<Rating>& ratings,
                       const TrainOptions& options = {});

}  // namespace msopds

#endif  // MSOPDS_RECSYS_TRAINER_H_
