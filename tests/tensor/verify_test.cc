#include "tensor/verify.h"

#include <gtest/gtest.h>

#include "tensor/grad.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace msopds {
namespace {

using internal::MakeTestNode;

// Restores the global toggles after each test so ordering never matters.
class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_auto_verify_ = internal::SetAutoVerify(false);
    previous_guard_ = internal::SetLeafMutationGuard(false);
  }
  void TearDown() override {
    internal::SetAutoVerify(previous_auto_verify_);
    internal::SetLeafMutationGuard(previous_guard_);
  }

 private:
  bool previous_auto_verify_ = false;
  bool previous_guard_ = false;
};

Variable SmallLoss(const Variable& a, const Variable& b) {
  return Add(Sum(Square(MatMul(a, b))), SquaredNorm(a));
}

TEST_F(VerifyTest, CleanGraphHasNoDiagnostics) {
  Variable a = Param(Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6}));
  Variable b = Param(Tensor::FromMatrix(3, 2, {1, 0, 0, 1, 1, 1}));
  Variable loss = SmallLoss(a, b);
  const VerifyResult result = GraphVerifier().Verify(loss, {a, b});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.diagnostics.empty()) << result.Report();
}

TEST_F(VerifyTest, CleanGradGraphHasNoDiagnostics) {
  Variable a = Param(Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6}));
  Variable b = Param(Tensor::FromMatrix(3, 2, {1, 0, 0, 1, 1, 1}));
  Variable grad = Grad(SmallLoss(a, b), {a})[0];
  const VerifyResult result = VerifyGraph(grad);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.diagnostics.empty()) << result.Report();
}

// The shape MSO differentiates through, in miniature (PDS Algorithm 1's
// inner loop): two unrolled functional gradient steps of an embedding
// table driven by SpMM messages, each through an inner Grad, then a
// ranking-style readout.
TEST_F(VerifyTest, CleanUnrolledInnerGradGraphHasNoDiagnostics) {
  Variable emb = Param(Tensor::FromMatrix(
      4, 2, {0.1, -0.2, 0.3, 0.4, -0.5, 0.2, 0.05, -0.15}));
  Variable w = Param(Tensor::FromVector({0.9, 0.3, -0.4, 0.7, 0.2}));
  const IndexVec dst = MakeIndex({0, 1, 2, 3, 0});
  const IndexVec src = MakeIndex({1, 0, 3, 2, 2});
  Variable h = emb;
  for (int step = 0; step < 2; ++step) {
    Variable messages = SpMM(dst, src, w, h, 4);
    Variable scores = EdgeDot(h, messages, MakeIndex({0, 1, 2, 3}),
                              MakeIndex({0, 1, 2, 3}));
    Variable loss = Sum(Square(
        Sub(scores, Constant(Tensor::FromVector({0.5, -0.1, 0.2, 0.3})))));
    h = Sub(h, ScalarMul(Grad(loss, {h})[0], 0.05));
  }
  Variable readout = Add(Sum(Square(h)), SquaredNorm(w));
  const VerifyResult result = GraphVerifier().Verify(readout, {emb, w});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.diagnostics.empty()) << result.Report();
  EXPECT_EQ(result.stats.num_params, 2);
  EXPECT_GT(result.stats.num_write_planned_nodes, 0);
  EXPECT_GE(result.stats.num_planned_chunks,
            result.stats.num_write_planned_nodes);
}

TEST_F(VerifyTest, StatsAccounting) {
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable c = Constant(Tensor::FromVector({4, 5, 6}));
  Variable y = Sum(Mul(x, c));  // nodes: x, c, Mul, Sum
  const VerifyResult result = VerifyGraph(y);
  EXPECT_EQ(result.stats.num_nodes, 4);
  EXPECT_EQ(result.stats.num_edges, 3);
  EXPECT_EQ(result.stats.num_leaves, 2);
  EXPECT_EQ(result.stats.num_params, 1);
  EXPECT_EQ(result.stats.max_depth, 3);
  // 3 + 3 + 3 + 1 doubles across the four nodes.
  EXPECT_EQ(result.stats.value_bytes, 10 * static_cast<int64_t>(sizeof(double)));
  EXPECT_EQ(result.stats.op_counts.at("Mul"), 1);
  EXPECT_EQ(result.stats.op_counts.at("leaf"), 2);
}

TEST_F(VerifyTest, DetectsShapeMismatch) {
  Variable a = Param(Tensor::FromVector({1, 2, 3}));
  Variable b = Param(Tensor::FromVector({4, 5, 6}));
  // An "Add" whose recorded output shape is impossible given its inputs.
  Variable bad = MakeTestNode("Add", Tensor::Zeros({5}), {a, b},
                              /*requires_grad=*/true);
  const VerifyResult result = VerifyGraph(bad);
  ASSERT_EQ(result.num_errors(), 1) << result.Report();
  EXPECT_NE(result.Report().find("shape check failed"), std::string::npos);
  EXPECT_EQ(result.diagnostics[0].node, bad.node().get());
}

TEST_F(VerifyTest, DetectsArityMismatch) {
  Variable a = Param(Tensor::FromVector({1, 2, 3}));
  Variable bad =
      MakeTestNode("MatMul", Tensor::Zeros({3}), {a}, /*requires_grad=*/true);
  const VerifyResult result = VerifyGraph(bad);
  ASSERT_EQ(result.num_errors(), 1) << result.Report();
  EXPECT_NE(result.Report().find("arity mismatch"), std::string::npos);
}

TEST_F(VerifyTest, DetectsCycle) {
  Variable a = Param(Tensor::FromVector({1, 2}));
  Variable u = MakeTestNode("Neg", Tensor::Zeros({2}), {a}, true);
  Variable v = MakeTestNode("Neg", Tensor::Zeros({2}), {u}, true);
  // Close the loop u -> v -> u by hand (impossible through the op API).
  u.node()->inputs.push_back(v);
  u.node()->input_generations.push_back(v.value().generation());

  const VerifyResult result = VerifyGraph(v);
  EXPECT_GE(result.num_errors(), 1);
  EXPECT_NE(result.Report().find("cycle"), std::string::npos);

  // Break the shared_ptr cycle so the graph can actually be freed (the
  // hazard the verifier is warning about).
  u.node()->inputs.clear();
  u.node()->input_generations.clear();
}

TEST_F(VerifyTest, DetectsStaleLeafMutation) {
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable y = Sum(Square(x));
  EXPECT_TRUE(VerifyGraph(y).ok());
  x.mutable_value().Fill(7.0);  // graph now disagrees with its recording
  const VerifyResult result = VerifyGraph(y);
  ASSERT_GE(result.num_errors(), 1) << result.Report();
  EXPECT_NE(result.Report().find("stale input"), std::string::npos);
}

TEST_F(VerifyTest, AutoVerifyRejectsStaleGraphInGrad) {
  internal::SetAutoVerify(true);
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable y = Sum(Square(x));
  x.mutable_value().Fill(7.0);
  EXPECT_DEATH(Grad(y, {x}), "failed verification");
}

TEST_F(VerifyTest, DetectsDetachedRequiresGradLeaf) {
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable detached = Param(Tensor::FromVector({9, 9, 9}));
  Variable y = Sum(Square(x));
  const VerifyResult result = GraphVerifier().Verify(y, {x, detached});
  EXPECT_TRUE(result.ok());  // dead subgraphs warn rather than error
  ASSERT_EQ(result.num_warnings(), 1) << result.Report();
  EXPECT_NE(result.Report().find("detached"), std::string::npos);
}

TEST_F(VerifyTest, WarnsOnInputNotRequiringGrad) {
  Variable x = Param(Tensor::FromVector({1, 2}));
  Variable c = Constant(Tensor::FromVector({3, 4}));
  Variable y = Sum(Mul(x, c));
  const VerifyResult result = GraphVerifier().Verify(y, {c});
  ASSERT_EQ(result.num_warnings(), 1) << result.Report();
  EXPECT_NE(result.Report().find("does not require grad"), std::string::npos);
}

TEST_F(VerifyTest, DetectsDroppedRequiresGrad) {
  Variable x = Param(Tensor::FromVector({1, 2}));
  // Interior node claiming to be constant while consuming a param.
  Variable bad =
      MakeTestNode("Neg", Tensor::Zeros({2}), {x}, /*requires_grad=*/false);
  const VerifyResult result = VerifyGraph(bad);
  ASSERT_EQ(result.num_errors(), 1) << result.Report();
  EXPECT_NE(result.Report().find("requires_grad dropped"), std::string::npos);
}

TEST_F(VerifyTest, DetectsUnsoundRequiresGradPromotion) {
  Variable c = Constant(Tensor::FromVector({1, 2}));
  Variable bad =
      MakeTestNode("Neg", Tensor::Zeros({2}), {c}, /*requires_grad=*/true);
  const VerifyResult result = VerifyGraph(bad);
  ASSERT_EQ(result.num_errors(), 1) << result.Report();
  EXPECT_NE(result.Report().find("no input requires grad"), std::string::npos);
}

TEST_F(VerifyTest, WarnsOnUnknownOp) {
  Variable x = Param(Tensor::FromVector({1, 2}));
  Variable odd = MakeTestNode("FusedMystery", Tensor::Zeros({2}), {x}, true);
  const VerifyResult result = VerifyGraph(odd);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.num_warnings(), 1) << result.Report();
  EXPECT_NE(result.Report().find("not in the shape-inference registry"),
            std::string::npos);
}

TEST_F(VerifyTest, DotExportMarksFailingNodes) {
  Variable a = Param(Tensor::FromVector({1, 2, 3}));
  Variable b = Param(Tensor::FromVector({4, 5, 6}));
  Variable bad = MakeTestNode("Add", Tensor::Zeros({5}), {a, b}, true);
  const VerifyResult result = VerifyGraph(bad);
  const std::string dot = GraphToDot(bad, result.diagnostics);
  EXPECT_NE(dot.find("digraph autodiff"), std::string::npos);
  EXPECT_NE(dot.find("Add"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=salmon"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Params render as double-bordered boxes.
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

TEST_F(VerifyTest, UndefinedRootIsAnError) {
  const VerifyResult result = VerifyGraph(Variable());
  EXPECT_EQ(result.num_errors(), 1);
}

// --- mutable_value() leaf-mutation guard ------------------------------------

TEST_F(VerifyTest, GuardAllowsMutationAfterGradValuesDropsTheGraph) {
  internal::SetLeafMutationGuard(true);
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable loss = Sum(Square(x));
  // The trainer flow: detached gradients, then an in-place step while only
  // the forward graph is still alive. Must not CHECK-fail.
  const std::vector<Tensor> grads = GradValues(loss, {x});
  x.mutable_value().at(0) -= 0.1 * grads[0].at(0);
  SUCCEED();
}

TEST_F(VerifyTest, GuardRejectsMutationWhileGradGraphIsLive) {
  internal::SetLeafMutationGuard(true);
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable loss = Sum(Square(x));
  Variable grad = Grad(loss, {x})[0];  // graph-carrying gradient held live
  EXPECT_DEATH(x.mutable_value(), "live gradient graph");
  // Dropping the gradient graph lifts the guard.
  grad = Variable();
  x.mutable_value().Fill(0.0);
  SUCCEED();
}

TEST_F(VerifyTest, OptimizerStepGuardRegression) {
  internal::SetLeafMutationGuard(true);
  std::vector<Variable> params = {Param(Tensor::FromVector({1, 2, 3}))};
  Adam adam(0.1);
  // The supported trainer flow: detached gradients, step. Fine.
  std::vector<Tensor> grads = GradValues(Sum(Square(params[0])), params);
  adam.Step(&params, grads);
  // Holding a graph-carrying gradient across a step is the hazard.
  Variable live_grad = Grad(Sum(Square(params[0])), params)[0];
  EXPECT_DEATH(adam.Step(&params, grads), "live gradient graph");
}

TEST_F(VerifyTest, GuardDisabledAllowsHazardousMutation) {
  internal::SetLeafMutationGuard(false);
  Variable x = Param(Tensor::FromVector({1, 2, 3}));
  Variable loss = Sum(Square(x));
  Variable grad = Grad(loss, {x})[0];
  x.mutable_value().Fill(0.0);  // hazardous but permitted when disabled
  EXPECT_TRUE(grad.defined());
}

}  // namespace
}  // namespace msopds
