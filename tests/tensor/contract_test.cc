// API-contract death tests: the library CHECK-fails loudly on misuse
// instead of corrupting state (Google style: no exceptions).

#include <gtest/gtest.h>

#include "tensor/grad.h"
#include "tensor/ops.h"

namespace msopds {
namespace {

TEST(TensorContractTest, RankThreeRejected) {
  EXPECT_DEATH(Tensor({2, 2, 2}), "rank 0..2");
}

TEST(TensorContractTest, OutOfRangeAccessDies) {
  Tensor t = Tensor::FromVector({1, 2});
  EXPECT_DEATH(t.at(2), "Check failed");
  EXPECT_DEATH(t.at(-1), "Check failed");
}

TEST(TensorContractTest, ItemRequiresSizeOne) {
  Tensor t = Tensor::FromVector({1, 2});
  EXPECT_DEATH(t.item(), "Check failed");
}

TEST(OpsContractTest, ShapeMismatchDies) {
  Variable a = Constant(Tensor::FromVector({1, 2}));
  Variable b = Constant(Tensor::FromVector({1, 2, 3}));
  EXPECT_DEATH(Add(a, b), "shape mismatch");
}

TEST(OpsContractTest, MatMulInnerDimMismatchDies) {
  Variable a = Constant(Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6}));
  Variable b = Constant(Tensor::FromMatrix(2, 2, {1, 2, 3, 4}));
  EXPECT_DEATH(MatMul(a, b), "Check failed");
}

TEST(OpsContractTest, GatherOutOfRangeDies) {
  Variable x = Constant(Tensor::FromVector({1, 2}));
  EXPECT_DEATH(Gather1(x, MakeIndex({5})), "Check failed");
}

// A scatter checks its destinations when it plans a new row count, so a
// kept plan for 10 rows does not let entry 5 through at 3 rows.
TEST(OpsContractTest, ScatterChecksEachNewRowCount) {
  const IndexVec idx = MakeIndex({0, 5});
  const Variable g = Constant(Tensor::FromVector({1, 2}));
  const Variable rows = Constant(Tensor::FromMatrix(2, 2, {1, 2, 3, 4}));
  EXPECT_EQ(ScatterAdd1(g, idx, 10).value().size(), 10);
  EXPECT_EQ(ScatterAddRows(rows, idx, 10).value().size(), 20);
  EXPECT_DEATH(ScatterAdd1(g, idx, 3), "Check failed");
  EXPECT_DEATH(ScatterAddRows(rows, idx, 3), "Check failed");
}

TEST(OpsContractTest, ReshapeMustPreserveSize) {
  Variable x = Constant(Tensor::FromVector({1, 2, 3}));
  EXPECT_DEATH(Reshape(x, {2, 2}), "keep size");
}

TEST(OpsContractTest, SliceBoundsChecked) {
  Variable x = Constant(Tensor::FromVector({1, 2, 3}));
  EXPECT_DEATH(Slice1(x, 1, 5), "Check failed");
  EXPECT_DEATH(Slice1(x, -1, 2), "Check failed");
}

TEST(GradContractTest, GradOfConstantDies) {
  Variable c = Constant(Tensor::Scalar(1.0));
  EXPECT_DEATH(Grad(c, {c}), "does not require grad");
}

TEST(GradContractTest, SeedShapeMismatchDies) {
  Variable x = Param(Tensor::FromVector({1, 2}));
  Variable y = Mul(x, x);
  Variable bad_seed = Constant(Tensor::Scalar(1.0));
  EXPECT_DEATH(Grad(y, {x}, bad_seed), "grad_output shape mismatch");
}

TEST(VariableContractTest, MutableValueOnDerivedNodeDies) {
  Variable x = Param(Tensor::Scalar(1.0));
  Variable y = Neg(x);
  EXPECT_DEATH(y.mutable_value(), "derived node");
}

TEST(VariableContractTest, UndefinedValueDies) {
  Variable empty;
  EXPECT_DEATH(empty.value(), "Check failed");
}

}  // namespace
}  // namespace msopds
