#include "tensor/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/grad.h"

namespace msopds {
namespace {

TEST(OpsTest, AddSameShape) {
  Variable a = Constant(Tensor::FromVector({1, 2}));
  Variable b = Constant(Tensor::FromVector({3, 4}));
  EXPECT_TRUE(AllClose(Add(a, b).value(), Tensor::FromVector({4, 6})));
}

TEST(OpsTest, AddScalarBroadcast) {
  Variable a = Constant(Tensor::FromVector({1, 2}));
  Variable s = ConstantScalar(10.0);
  EXPECT_TRUE(AllClose(Add(a, s).value(), Tensor::FromVector({11, 12})));
  EXPECT_TRUE(AllClose(Add(s, a).value(), Tensor::FromVector({11, 12})));
}

TEST(OpsTest, MulDivNeg) {
  Variable a = Constant(Tensor::FromVector({2, -3}));
  Variable b = Constant(Tensor::FromVector({4, 2}));
  EXPECT_TRUE(AllClose(Mul(a, b).value(), Tensor::FromVector({8, -6})));
  EXPECT_TRUE(AllClose(Div(a, b).value(), Tensor::FromVector({0.5, -1.5})));
  EXPECT_TRUE(AllClose(Neg(a).value(), Tensor::FromVector({-2, 3})));
}

TEST(OpsTest, ScalarMulAndAddScalar) {
  Variable a = Constant(Tensor::FromVector({1, 2}));
  EXPECT_TRUE(AllClose(ScalarMul(a, 3.0).value(), Tensor::FromVector({3, 6})));
  EXPECT_TRUE(AllClose(AddScalar(a, 1.5).value(),
                       Tensor::FromVector({2.5, 3.5})));
}

TEST(OpsTest, ExpLogSqrtSquare) {
  Variable a = Constant(Tensor::FromVector({0.0, 1.0}));
  EXPECT_NEAR(Exp(a).value().at(1), std::exp(1.0), 1e-12);
  Variable b = Constant(Tensor::FromVector({1.0, std::exp(2.0)}));
  EXPECT_NEAR(Log(b).value().at(1), 2.0, 1e-12);
  Variable c = Constant(Tensor::FromVector({4.0, 9.0}));
  EXPECT_TRUE(AllClose(Sqrt(c).value(), Tensor::FromVector({2, 3})));
  EXPECT_TRUE(AllClose(Square(c).value(), Tensor::FromVector({16, 81})));
}

TEST(OpsTest, MatMulKnownValues) {
  Variable a = Constant(Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6}));
  Variable b = Constant(Tensor::FromMatrix(3, 2, {7, 8, 9, 10, 11, 12}));
  const Tensor expected = Tensor::FromMatrix(2, 2, {58, 64, 139, 154});
  EXPECT_TRUE(AllClose(MatMul(a, b).value(), expected));
}

TEST(OpsTest, TransposeRoundTrip) {
  Variable a = Constant(Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6}));
  Variable t = Transpose(a);
  EXPECT_EQ(t.value().dim(0), 3);
  EXPECT_DOUBLE_EQ(t.value().at(2, 1), 6.0);
  EXPECT_TRUE(AllClose(Transpose(t).value(), a.value()));
}

TEST(OpsTest, SumMeanRowSum) {
  Variable a = Constant(Tensor::FromMatrix(2, 2, {1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(Sum(a).value().item(), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a).value().item(), 2.5);
  EXPECT_TRUE(AllClose(RowSum(a).value(), Tensor::FromVector({3, 7})));
}

TEST(OpsTest, TileColsExpandsVector) {
  Variable v = Constant(Tensor::FromVector({1, 2}));
  const Tensor expected = Tensor::FromMatrix(2, 3, {1, 1, 1, 2, 2, 2});
  EXPECT_TRUE(AllClose(TileCols(v, 3).value(), expected));
}

TEST(OpsTest, ConcatAndSliceCols) {
  Variable a = Constant(Tensor::FromMatrix(2, 1, {1, 2}));
  Variable b = Constant(Tensor::FromMatrix(2, 2, {3, 4, 5, 6}));
  Variable c = ConcatCols(a, b);
  EXPECT_EQ(c.value().dim(1), 3);
  EXPECT_DOUBLE_EQ(c.value().at(1, 2), 6.0);
  EXPECT_TRUE(AllClose(SliceCols(c, 0, 1).value(), a.value()));
  EXPECT_TRUE(AllClose(SliceCols(c, 1, 3).value(), b.value()));
}

TEST(OpsTest, ConcatAndSlice1) {
  Variable a = Constant(Tensor::FromVector({1, 2}));
  Variable b = Constant(Tensor::FromVector({3}));
  Variable c = Concat1(a, b);
  EXPECT_TRUE(AllClose(c.value(), Tensor::FromVector({1, 2, 3})));
  EXPECT_TRUE(AllClose(Slice1(c, 1, 3).value(), Tensor::FromVector({2, 3})));
}

TEST(OpsTest, Concat1WithEmpty) {
  Variable a = Constant(Tensor::Zeros({0}));
  Variable b = Constant(Tensor::FromVector({5}));
  EXPECT_TRUE(AllClose(Concat1(a, b).value(), Tensor::FromVector({5})));
}

TEST(OpsTest, GatherRowsRepeatsAllowed) {
  Variable x = Constant(Tensor::FromMatrix(3, 2, {1, 2, 3, 4, 5, 6}));
  Variable g = GatherRows(x, MakeIndex({2, 0, 2}));
  const Tensor expected = Tensor::FromMatrix(3, 2, {5, 6, 1, 2, 5, 6});
  EXPECT_TRUE(AllClose(g.value(), expected));
}

TEST(OpsTest, ScatterAddRowsAccumulates) {
  Variable g = Constant(Tensor::FromMatrix(3, 1, {1, 2, 3}));
  Variable s = ScatterAddRows(g, MakeIndex({0, 1, 0}), 2);
  EXPECT_TRUE(AllClose(s.value(), Tensor::FromMatrix(2, 1, {4, 2})));
}

TEST(OpsTest, Gather1AndScatterAdd1) {
  Variable x = Constant(Tensor::FromVector({10, 20, 30}));
  EXPECT_TRUE(AllClose(Gather1(x, MakeIndex({2, 2, 0})).value(),
                       Tensor::FromVector({30, 30, 10})));
  Variable g = Constant(Tensor::FromVector({1, 2, 3}));
  EXPECT_TRUE(AllClose(ScatterAdd1(g, MakeIndex({1, 1, 0}), 3).value(),
                       Tensor::FromVector({3, 3, 0})));
}

TEST(OpsTest, SpMMWeightedAggregation) {
  // Two nodes; edges 0<-1 (w=2) and 1<-0 (w=0.5).
  Variable x = Constant(Tensor::FromMatrix(2, 2, {1, 2, 3, 4}));
  Variable w = Constant(Tensor::FromVector({2.0, 0.5}));
  Variable out = SpMM(MakeIndex({0, 1}), MakeIndex({1, 0}), w, x, 2);
  const Tensor expected = Tensor::FromMatrix(2, 2, {6, 8, 0.5, 1});
  EXPECT_TRUE(AllClose(out.value(), expected));
}

TEST(OpsTest, SpMMZeroWeightDropsEdge) {
  Variable x = Constant(Tensor::FromMatrix(2, 1, {1, 1}));
  Variable w = Constant(Tensor::FromVector({0.0}));
  Variable out = SpMM(MakeIndex({0}), MakeIndex({1}), w, x, 2);
  EXPECT_TRUE(AllClose(out.value(), Tensor::FromMatrix(2, 1, {0, 0})));
}

TEST(OpsTest, EdgeDotMatchesManual) {
  Variable a = Constant(Tensor::FromMatrix(2, 2, {1, 2, 3, 4}));
  Variable b = Constant(Tensor::FromMatrix(2, 2, {5, 6, 7, 8}));
  Variable out = EdgeDot(a, b, MakeIndex({0, 1}), MakeIndex({1, 0}));
  // dot([1,2],[7,8]) = 23; dot([3,4],[5,6]) = 39.
  EXPECT_TRUE(AllClose(out.value(), Tensor::FromVector({23, 39})));
}

TEST(OpsTest, SeluSigmoidValues) {
  Variable x = Constant(Tensor::FromVector({-1.0, 0.5}));
  const Tensor selu = Selu(x).value();
  EXPECT_NEAR(selu.at(1), 1.0507009873554805 * 0.5, 1e-12);
  EXPECT_NEAR(selu.at(0),
              1.0507009873554805 * 1.6732632423543772 * (std::exp(-1.0) - 1),
              1e-12);
  const Tensor sig = Sigmoid(x).value();
  EXPECT_NEAR(sig.at(0), 1.0 / (1.0 + std::exp(1.0)), 1e-12);
}

TEST(OpsTest, SeluIsContinuousAtZero) {
  Variable eps = Constant(Tensor::FromVector({-1e-12, 0.0, 1e-12}));
  const Tensor out = Selu(eps).value();
  EXPECT_NEAR(out.at(0), 0.0, 1e-10);
  EXPECT_NEAR(out.at(1), 0.0, 1e-10);
  EXPECT_NEAR(out.at(2), 0.0, 1e-10);
}

TEST(OpsTest, PairDotAndDot) {
  Variable a = Constant(Tensor::FromMatrix(2, 2, {1, 2, 3, 4}));
  Variable b = Constant(Tensor::FromMatrix(2, 2, {5, 6, 7, 8}));
  EXPECT_TRUE(AllClose(PairDot(a, b).value(), Tensor::FromVector({17, 53})));
  Variable u = Constant(Tensor::FromVector({1, 2}));
  Variable v = Constant(Tensor::FromVector({3, 4}));
  EXPECT_DOUBLE_EQ(Dot(u, v).value().item(), 11.0);
}

TEST(OpsTest, SegmentSoftmaxNormalizesPerSegment) {
  Variable scores = Constant(Tensor::FromVector({1.0, 2.0, 3.0, -1.0}));
  Variable out = SegmentSoftmax(scores, MakeIndex({0, 0, 1, 1}), 2);
  const Tensor t = out.value();
  EXPECT_NEAR(t.at(0) + t.at(1), 1.0, 1e-12);
  EXPECT_NEAR(t.at(2) + t.at(3), 1.0, 1e-12);
  EXPECT_GT(t.at(1), t.at(0));
  EXPECT_GT(t.at(2), t.at(3));
}

TEST(OpsTest, SegmentSoftmaxIsStableForLargeScores) {
  Variable scores = Constant(Tensor::FromVector({1000.0, 1001.0}));
  const Tensor out =
      SegmentSoftmax(scores, MakeIndex({0, 0}), 1).value();
  EXPECT_NEAR(out.at(0) + out.at(1), 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(out.at(0)));
}

TEST(OpsTest, SquaredNorm) {
  Variable x = Constant(Tensor::FromVector({3, 4}));
  EXPECT_DOUBLE_EQ(SquaredNorm(x).value().item(), 25.0);
}

TEST(OpsTest, WhereSelectsByMask) {
  Tensor mask = Tensor::FromVector({1, 0, 1});
  Variable a = Constant(Tensor::FromVector({1, 2, 3}));
  Variable b = Constant(Tensor::FromVector({10, 20, 30}));
  EXPECT_TRUE(AllClose(Where(mask, a, b).value(),
                       Tensor::FromVector({1, 20, 3})));
}

TEST(OpsTest, RequiresGradPropagates) {
  Variable p = Param(Tensor::FromVector({1, 2}));
  Variable c = Constant(Tensor::FromVector({3, 4}));
  EXPECT_TRUE(Add(p, c).requires_grad());
  EXPECT_FALSE(Add(c, c).requires_grad());
}

TEST(OpsTest, OperatorSugar) {
  Variable a = Constant(Tensor::FromVector({1, 2}));
  Variable b = Constant(Tensor::FromVector({3, 4}));
  EXPECT_TRUE(AllClose((a + b).value(), Tensor::FromVector({4, 6})));
  EXPECT_TRUE(AllClose((a - b).value(), Tensor::FromVector({-2, -2})));
  EXPECT_TRUE(AllClose((a * b).value(), Tensor::FromVector({3, 8})));
  EXPECT_TRUE(AllClose((-a).value(), Tensor::FromVector({-1, -2})));
}

}  // namespace
}  // namespace msopds
