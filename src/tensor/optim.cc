#include "tensor/optim.h"

#include <cmath>

#include "util/logging.h"

namespace msopds {
namespace {

void CheckShapes(const std::vector<Variable>& params,
                 const std::vector<Tensor>& grads) {
  MSOPDS_CHECK_EQ(params.size(), grads.size());
  for (size_t i = 0; i < params.size(); ++i) {
    MSOPDS_CHECK(params[i].value().SameShape(grads[i]))
        << "param/grad shape mismatch at index " << i;
  }
}

}  // namespace

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon,
           double weight_decay)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  MSOPDS_CHECK_GT(learning_rate, 0.0);
  MSOPDS_CHECK(beta1 >= 0.0 && beta1 < 1.0);
  MSOPDS_CHECK(beta2 >= 0.0 && beta2 < 1.0);
}

void Adam::Step(std::vector<Variable>* params,
                const std::vector<Tensor>& grads) {
  CheckShapes(*params, grads);
  if (first_moment_.empty()) {
    for (const Variable& p : *params) {
      first_moment_.push_back(Tensor::Zeros(p.value().shape()));
      second_moment_.push_back(Tensor::Zeros(p.value().shape()));
    }
  }
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  for (size_t i = 0; i < params->size(); ++i) {
    Tensor& value = (*params)[i].mutable_value();
    const double* g = grads[i].data();
    double* v = value.data();
    double* m1 = first_moment_[i].data();
    double* m2 = second_moment_[i].data();
    for (int64_t j = 0; j < value.size(); ++j) {
      const double grad = g[j] + weight_decay_ * v[j];
      m1[j] = beta1_ * m1[j] + (1.0 - beta1_) * grad;
      m2[j] = beta2_ * m2[j] + (1.0 - beta2_) * grad * grad;
      const double m1_hat = m1[j] / bias1;
      const double m2_hat = m2[j] / bias2;
      v[j] -= learning_rate_ * m1_hat / (std::sqrt(m2_hat) + epsilon_);
    }
  }
}

}  // namespace msopds
