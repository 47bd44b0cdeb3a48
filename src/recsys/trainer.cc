#include "recsys/trainer.h"

#include <cmath>
#include <utility>

#include "tensor/grad.h"
#include "tensor/optim.h"
#include "util/arena.h"
#include "util/fault.h"
#include "util/health.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

/// Learning-rate factor applied on every retry (exponential backoff).
constexpr double kRetryDecay = 0.5;

}  // namespace

StatusOr<TrainResult> TrainEpochs(std::vector<Variable>* params,
                                  const TrainOptions& options,
                                  const LossAndGrads& loss_and_grads) {
  MSOPDS_CHECK(params != nullptr);
  if (options.epochs <= 0) {
    return Status::InvalidArgument("epochs must be positive");
  }
  if (!(options.learning_rate > 0.0) || options.max_retries < 0 ||
      options.num_threads < 0) {
    return Status::InvalidArgument(
        "invalid learning-rate/retry/thread options");
  }
  if (options.num_threads > 0) {
    ThreadPool::Global().SetNumThreads(options.num_threads);
  }

  // One arena region per training run: per-epoch buffers recycle through
  // the free lists and are trimmed in bulk when training ends.
  ArenaRegion region;

  double learning_rate = options.learning_rate;
  Adam optimizer(learning_rate);
  FaultInjector& faults = FaultInjector::Global();
  DivergenceDetector detector;
  int retries_left = options.max_retries;

  TrainResult result;
  result.loss_history.reserve(static_cast<size_t>(options.epochs));

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    // Pre-epoch snapshot so an unhealthy epoch can be rolled back; a NaN
    // that slips into the parameters is unrecoverable otherwise.
    std::vector<Tensor> snapshot;
    snapshot.reserve(params->size());
    for (const Variable& param : *params) {
      snapshot.push_back(param.value().Clone());
    }

    std::vector<Tensor> grads;
    StatusOr<double> loss = loss_and_grads(&grads);
    if (!loss.ok()) return loss.status();
    const double epoch_loss = loss.value();
    faults.MaybeCorruptTrainerGradients(&grads);
    Health health = Health::kNonFinite;
    if (std::isfinite(epoch_loss) && AllFinite(grads)) {
      optimizer.Step(params, grads);
      health = detector.Observe(epoch_loss);
    }

    if (health != Health::kHealthy) {
      ++result.fault_events;
      for (size_t i = 0; i < snapshot.size(); ++i) {
        (*params)[i].mutable_value() = snapshot[i].Clone();
      }
      if (retries_left == 0) {
        result.healthy = false;
        result.failure = StrFormat(
            "epoch %d %s after %d retries (learning rate %.3g)", epoch,
            HealthToString(health).c_str(), result.retries, learning_rate);
        MSOPDS_LOG(Warning) << "training giving up: " << result.failure;
        break;
      }
      --retries_left;
      ++result.retries;
      learning_rate *= kRetryDecay;
      optimizer = Adam(learning_rate);
      detector.Reset();
      MSOPDS_LOG(Warning) << "training epoch " << epoch << " "
                          << HealthToString(health)
                          << "; retrying with learning rate " << learning_rate;
      --epoch;  // retry the same epoch at the decayed learning rate
      continue;
    }
    result.loss_history.push_back(epoch_loss);
  }

  StatusOr<double> final_loss = loss_and_grads(nullptr);
  if (!final_loss.ok()) return final_loss.status();
  result.final_loss = final_loss.value();
  // An overflowing last step can pass every epoch's check; a non-finite
  // model must still never be reported as healthy.
  if (!std::isfinite(result.final_loss) && result.healthy) {
    result.healthy = false;
    result.failure = "non-finite final loss";
  }
  return result;
}

TrainResult TrainModel(RatingModel* model, const std::vector<Rating>& ratings,
                       const TrainOptions& options) {
  MSOPDS_CHECK(model != nullptr);
  std::vector<Variable>* params = model->MutableParams();
  StatusOr<TrainResult> result = TrainEpochs(
      params, options, [&](std::vector<Tensor>* grads) -> StatusOr<double> {
        Variable loss = model->TrainingLoss(ratings);
        if (grads != nullptr) *grads = GradValues(loss, *params);
        return loss.value().item();
      });
  MSOPDS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace msopds
