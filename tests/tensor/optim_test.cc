#include "tensor/optim.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/grad.h"
#include "tensor/ops.h"

namespace msopds {
namespace {

// Minimizes f(x) = sum((x - t)^2) and returns the final point.
Tensor Minimize(Adam* optimizer, const Tensor& start, const Tensor& t,
                int steps) {
  std::vector<Variable> params = {Param(start.Clone())};
  for (int i = 0; i < steps; ++i) {
    Variable loss = Sum(Square(Sub(params[0], Constant(t.Clone()))));
    optimizer->Step(&params, GradValues(loss, params));
  }
  return params[0].value();
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Adam adam(0.2);
  const Tensor t = Tensor::FromVector({-1.0, 4.0});
  const Tensor x = Minimize(&adam, Tensor::Zeros({2}), t, 200);
  EXPECT_TRUE(AllClose(x, t, 1e-3));
}

TEST(AdamTest, FirstStepHasUnitScale) {
  // Adam's bias correction makes the first step ~lr * sign(grad).
  Adam adam(0.1);
  std::vector<Variable> params = {Param(Tensor::Zeros({1}))};
  Tensor grad = Tensor::FromVector({123.0});
  adam.Step(&params, {grad});
  EXPECT_NEAR(params[0].value().at(0), -0.1, 1e-6);
}

TEST(AdamTest, HandlesMultipleParameterBlocks) {
  Adam adam(0.3);
  std::vector<Variable> params = {Param(Tensor::Zeros({2})),
                                  Param(Tensor::Zeros({3}))};
  const Tensor t1 = Tensor::FromVector({1.0, 2.0});
  const Tensor t2 = Tensor::FromVector({-1.0, 0.5, 3.0});
  for (int i = 0; i < 300; ++i) {
    Variable loss = Add(Sum(Square(Sub(params[0], Constant(t1.Clone())))),
                        Sum(Square(Sub(params[1], Constant(t2.Clone())))));
    adam.Step(&params, GradValues(loss, params));
  }
  EXPECT_TRUE(AllClose(params[0].value(), t1, 1e-2));
  EXPECT_TRUE(AllClose(params[1].value(), t2, 1e-2));
}

TEST(OptimizerTest, StepsAreDeterministic) {
  for (int trial = 0; trial < 2; ++trial) {
    Adam adam(0.1);
    const Tensor x = Minimize(&adam, Tensor::Zeros({2}),
                              Tensor::FromVector({1.0, 1.0}), 5);
    static Tensor first;
    if (trial == 0) {
      first = x.Clone();
    } else {
      EXPECT_TRUE(AllClose(first, x));
    }
  }
}

}  // namespace
}  // namespace msopds
