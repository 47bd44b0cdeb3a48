#include "tensor/grad.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/verify.h"

namespace msopds {
namespace {

TEST(GradTest, IdentityGradient) {
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable y = Sum(x);
  const Tensor g = Grad(y, {x})[0].value();
  EXPECT_TRUE(AllClose(g, Tensor::FromVector({1, 1, 1})));
}

TEST(GradTest, UnusedInputGetsZeros) {
  Variable x = Param(Tensor::FromVector({1, 2}));
  Variable z = Param(Tensor::FromVector({5, 6, 7}));
  Variable y = Sum(x);
  const std::vector<Variable> grads = Grad(y, {x, z});
  EXPECT_TRUE(AllClose(grads[1].value(), Tensor::Zeros({3})));
}

TEST(GradTest, OutputAsItsOwnInput) {
  Variable x = Param(Tensor::Scalar(4.0));
  Variable y = Mul(x, x);
  const std::vector<Variable> grads = Grad(y, {y, x});
  EXPECT_DOUBLE_EQ(grads[0].value().item(), 1.0);
  EXPECT_DOUBLE_EQ(grads[1].value().item(), 8.0);
}

TEST(GradTest, DiamondAccumulation) {
  // y = x*x + x*x uses x through two paths of a shared node.
  Variable x = Param(Tensor::Scalar(3.0));
  Variable s = Mul(x, x);
  Variable y = Add(s, s);
  EXPECT_DOUBLE_EQ(Grad(y, {x})[0].value().item(), 12.0);
}

TEST(GradTest, CustomSeedScalesGradient) {
  Variable x = Param(Tensor::FromVector({1, 2}));
  Variable y = Mul(x, x);
  Variable seed = Constant(Tensor::FromVector({10, 100}));
  const Tensor g = Grad(y, {x}, seed)[0].value();
  EXPECT_TRUE(AllClose(g, Tensor::FromVector({20, 400})));
}

TEST(GradTest, GradientOfGradient) {
  // f = x^3, f' = 3x^2, f'' = 6x.
  Variable x = Param(Tensor::Scalar(2.0));
  Variable f = Mul(Mul(x, x), x);
  Variable df = Grad(f, {x})[0];
  EXPECT_DOUBLE_EQ(df.value().item(), 12.0);
  EXPECT_TRUE(df.requires_grad());
  Variable ddf = Grad(df, {x})[0];
  EXPECT_DOUBLE_EQ(ddf.value().item(), 12.0);
  // Third order: f''' = 6.
  EXPECT_DOUBLE_EQ(Grad(ddf, {x})[0].value().item(), 6.0);
}

TEST(GradTest, HessianVectorProductQuadratic) {
  // f = 0.5 x^T A x with A = [[2, 1], [1, 4]]; Hv = A v.
  Variable x = Param(Tensor::FromVector({1.0, -1.0}));
  Variable x0 = Slice1(x, 0, 1);
  Variable x1 = Slice1(x, 1, 2);
  Variable f = ScalarMul(
      Add(Add(ScalarMul(Mul(x0, x0), 2.0), ScalarMul(Mul(x0, x1), 2.0)),
          ScalarMul(Mul(x1, x1), 4.0)),
      0.5);
  Variable grad = Grad(Sum(f), {x})[0];
  const Tensor hv =
      HessianVectorProduct(grad, x, Tensor::FromVector({1.0, 0.0}));
  EXPECT_TRUE(AllClose(hv, Tensor::FromVector({2.0, 1.0}), 1e-9));
  const Tensor hv2 =
      HessianVectorProduct(grad, x, Tensor::FromVector({0.0, 1.0}));
  EXPECT_TRUE(AllClose(hv2, Tensor::FromVector({1.0, 4.0}), 1e-9));
}

TEST(GradTest, HvpOfLinearFunctionIsZero) {
  Variable x = Param(Tensor::FromVector({1.0, 2.0}));
  Variable f = Sum(ScalarMul(x, 3.0));
  Variable grad = Grad(f, {x})[0];
  const Tensor hv =
      HessianVectorProduct(grad, x, Tensor::FromVector({1.0, 1.0}));
  EXPECT_TRUE(AllClose(hv, Tensor::Zeros({2})));
}

TEST(GradTest, MixedVectorJacobianBilinear) {
  // L(x, y) = x^T B y with B = [[1, 2], [3, 4]]:
  // dL/dy = B^T x, and d/dx <dL/dy, xi> = B xi.
  Variable x = Param(Tensor::FromVector({1.0, 1.0}));
  Variable y = Param(Tensor::FromVector({2.0, -1.0}));
  Variable x0 = Slice1(x, 0, 1), x1 = Slice1(x, 1, 2);
  Variable y0 = Slice1(y, 0, 1), y1 = Slice1(y, 1, 2);
  Variable loss = Sum(Add(
      Add(Mul(x0, y0), ScalarMul(Mul(x0, y1), 2.0)),
      Add(ScalarMul(Mul(x1, y0), 3.0), ScalarMul(Mul(x1, y1), 4.0))));
  Variable grad_y = Grad(loss, {y})[0];
  const Tensor xi = Tensor::FromVector({1.0, 2.0});
  const Tensor mixed = MixedVectorJacobian(grad_y, x, xi);
  // B xi = [1*1+2*2, 3*1+4*2] = [5, 11].
  EXPECT_TRUE(AllClose(mixed, Tensor::FromVector({5.0, 11.0}), 1e-9));
}

TEST(GradTest, GradThroughUnrolledSgdStep) {
  // theta' = theta - 0.1 * dL/dtheta with L = (theta - t)^2;
  // final = (theta')^2. d final / d t should be nonzero: theta' depends
  // on t through the inner gradient.
  Variable theta = Param(Tensor::Scalar(1.0));
  Variable t = Param(Tensor::Scalar(0.5));
  Variable inner = Square(Sub(theta, t));
  Variable g = Grad(inner, {theta})[0];  // 2(theta - t) = 1.0
  Variable theta_next = Sub(theta, ScalarMul(g, 0.1));  // 1 - 0.1 = 0.9
  EXPECT_NEAR(theta_next.value().item(), 0.9, 1e-12);
  Variable final = Square(theta_next);
  // d final/dt = 2 theta' * d theta'/dt = 2*0.9*(+0.2) = 0.36.
  const Tensor dt = Grad(final, {t})[0].value();
  EXPECT_NEAR(dt.item(), 0.36, 1e-12);
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// Next node seq; the gap between two calls counts the nodes created in
// between, plus one.
uint64_t NextSeq() { return Constant(Tensor::Scalar(0.0)).node()->seq; }

// A 6-step recorded SGD unroll like PdsSurrogate::TrainUnrolled: each step
// takes Grad(loss_t, {theta_t}) and keeps its graph. The walk stops at
// theta_t, so every inner Grad creates the same number of nodes however
// many steps lie behind it. The outer gradient through the whole unroll
// is pinned bit for bit.
TEST(GradTest, InnerGradsOfAnUnrollDoEqualWork) {
  Variable x = Param(Tensor::FromVector({0.5, -1.0, 2.0}));
  const Variable target = Constant(Tensor::FromVector({1.5, 0.25, -0.75}));
  Variable theta = ScalarMul(x, 0.5);
  std::vector<uint64_t> created;
  for (int step = 0; step < 6; ++step) {
    Variable loss = Sum(Square(Sub(theta, target)));
    const uint64_t before = NextSeq();
    Variable g = Grad(loss, {theta})[0];
    created.push_back(NextSeq() - before);
    theta = Sub(theta, ScalarMul(g, 0.1));
  }
  for (size_t step = 1; step < created.size(); ++step) {
    EXPECT_EQ(created[step], created[0]) << "inner Grad at step " << step;
  }

  const Tensor outer = GradValues(Sum(Square(theta)), {x})[0];
  const double expected[] = {0x1.3ab1378b28b2ep-2, 0x1.caa23fe9bf006p-7,
                             -0x1.38b9a40116f0bp-4};
  ASSERT_EQ(outer.size(), 3);
  for (int64_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(Hex(outer.at(i)), Hex(expected[i])) << "element " << i;
  }
}

// Each op backward is told which input gradients the walk needs: of a
// requested Param, an unrequested Param and a Constant, only the first.
TEST(GradTest, BackwardIsHandedTheNeedsInputGradMask) {
  std::vector<bool> mask;
  Variable wanted = Param(Tensor::FromVector({1.0, 2.0}));
  Variable unwanted = Param(Tensor::FromVector({3.0, 4.0}));
  Variable constant = Constant(Tensor::FromVector({5.0, 6.0}));
  Variable probe = internal::MakeTestNode(
      "Probe", Tensor::Zeros({2}), {wanted, unwanted, constant},
      /*requires_grad=*/true);
  probe.node()->backward = [&mask](const Variable& g,
                                   const std::vector<Variable>&,
                                   const std::vector<bool>& needs) {
    mask = needs;
    return std::vector<Variable>{g, Variable(), Variable()};
  };
  const Tensor grad = GradValues(Sum(probe), {wanted})[0];
  EXPECT_EQ(mask, (std::vector<bool>{true, false, false}));
  EXPECT_TRUE(AllClose(grad, Tensor::Ones({2})));
}

// A requested node whose inputs lead to no requested input is where the
// walk stops: its backward does not run.
TEST(GradTest, RequestedNodeWithoutNeededInputsDoesNotRunItsBackward) {
  int calls = 0;
  Variable x = Param(Tensor::FromVector({1.0, 2.0}));
  Variable y = internal::MakeTestNode("Probe", Tensor::FromVector({3.0, 4.0}),
                                      {x}, /*requires_grad=*/true);
  y.node()->backward = [&calls](const Variable& g,
                                const std::vector<Variable>&,
                                const std::vector<bool>&) {
    ++calls;
    return std::vector<Variable>{g};
  };
  Variable out = Sum(Mul(y, y));
  const Tensor dy = GradValues(out, {y})[0];
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(AllClose(dy, Tensor::FromVector({6.0, 8.0})));
  GradValues(out, {y, x});
  EXPECT_EQ(calls, 1);
}

TEST(GradTest, GradValuesDetaches) {
  Variable x = Param(Tensor::Scalar(2.0));
  Variable y = Mul(x, x);
  const std::vector<Tensor> grads = GradValues(y, {x});
  EXPECT_DOUBLE_EQ(grads[0].item(), 4.0);
}

// The gradient-recording flag belongs to the thread that opened the
// scope. Replays an interleaving in which thread A opens a scope, thread B
// opens one, A closes first and B second: a process-wide flag would be
// restored to B's snapshot (set) and tag every later forward op as a
// gradient-graph consumer, tripping the leaf-mutation guard.
TEST(GradTest, RecordingScopesOnTwoThreadsDoNotLeakTheFlag) {
  std::atomic<int> step{0};
  auto await = [&step](int target) {
    while (step.load() < target) std::this_thread::yield();
  };
  std::thread a([&] {
    {
      internal::ScopedGradRecording scope;
      step.store(1);
      await(2);
    }
    step.store(3);
  });
  std::thread b([&] {
    await(1);
    internal::ScopedGradRecording scope;
    step.store(2);
    await(3);
  });
  a.join();
  b.join();

  EXPECT_FALSE(internal::GradRecordingActive());
  Variable x = Param(Tensor::FromVector({1.0, 2.0}));
  Variable y = Mul(x, x);
  ASSERT_FALSE(y.node()->in_grad_graph);
  const bool previous_guard = internal::SetLeafMutationGuard(true);
  x.mutable_value().data()[0] = 3.0;
  internal::SetLeafMutationGuard(previous_guard);
  EXPECT_DOUBLE_EQ(x.value().at(0), 3.0);
}

}  // namespace
}  // namespace msopds
