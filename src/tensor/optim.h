#ifndef MSOPDS_TENSOR_OPTIM_H_
#define MSOPDS_TENSOR_OPTIM_H_

#include <vector>

#include "tensor/tensor.h"
#include "tensor/variable.h"

namespace msopds {

/// Adam (Kingma & Ba) with decoupled weight decay: the optimizer of
/// ordinary (non-unrolled) training, e.g. the victim Het-RecSys in paper
/// Eq. (1), driven by TrainEpochs (recsys/trainer.h). Parameters must be
/// leaf Variables; Step mutates their tensors in place. The
/// differentiable surrogate (PDS) does NOT use it: its inner loop builds
/// functional update graphs.
class Adam {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8, double weight_decay = 0.0);

  /// Applies one update. grads[i] must match params[i]'s shape.
  void Step(std::vector<Variable>* params, const std::vector<Tensor>& grads);

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  int64_t step_count_ = 0;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
};

}  // namespace msopds

#endif  // MSOPDS_TENSOR_OPTIM_H_
