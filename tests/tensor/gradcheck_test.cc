#include "tensor/gradcheck.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msopds {
namespace {

constexpr double kTolerance = 1e-6;

Tensor RandomVector(int64_t n, Rng* rng, double lo = -1.0, double hi = 1.0) {
  Tensor t({n});
  for (int64_t i = 0; i < n; ++i) t.at(i) = rng->Uniform(lo, hi);
  return t;
}

Tensor RandomMatrix(int64_t r, int64_t c, Rng* rng) {
  Tensor t({r, c});
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = rng->Uniform(-1, 1);
  return t;
}

// A named scalar function plus the points it is checked at.
struct GradCase {
  std::string name;
  ScalarFn fn;
  std::vector<Tensor> points;
};

class GradCheckTest : public ::testing::TestWithParam<int> {};

std::vector<GradCase> MakeCases() {
  Rng rng(42);
  std::vector<GradCase> cases;

  cases.push_back({"sum_add",
                   [](const std::vector<Variable>& v) {
                     return Sum(Add(v[0], v[1]));
                   },
                   {RandomVector(4, &rng), RandomVector(4, &rng)}});
  cases.push_back({"sum_sub_neg",
                   [](const std::vector<Variable>& v) {
                     return Sum(Sub(Neg(v[0]), v[1]));
                   },
                   {RandomVector(4, &rng), RandomVector(4, &rng)}});
  cases.push_back({"mean_mul",
                   [](const std::vector<Variable>& v) {
                     return Mean(Mul(v[0], v[1]));
                   },
                   {RandomVector(5, &rng), RandomVector(5, &rng)}});
  cases.push_back({"sum_div",
                   [](const std::vector<Variable>& v) {
                     return Sum(Div(v[0], v[1]));
                   },
                   {RandomVector(4, &rng), RandomVector(4, &rng, 0.5, 2.0)}});
  cases.push_back({"scalar_broadcast_mul",
                   [](const std::vector<Variable>& v) {
                     return Sum(Mul(v[0], v[1]));
                   },
                   {RandomVector(4, &rng), Tensor::Scalar(0.7)}});
  cases.push_back({"exp_of_product",
                   [](const std::vector<Variable>& v) {
                     return Sum(Exp(Mul(v[0], v[1])));
                   },
                   {RandomVector(3, &rng), RandomVector(3, &rng)}});
  cases.push_back({"log",
                   [](const std::vector<Variable>& v) {
                     return Sum(Log(v[0]));
                   },
                   {RandomVector(4, &rng, 0.5, 3.0)}});
  cases.push_back({"sqrt",
                   [](const std::vector<Variable>& v) {
                     return Sum(Sqrt(v[0]));
                   },
                   {RandomVector(4, &rng, 0.5, 3.0)}});
  cases.push_back({"matmul_sum",
                   [](const std::vector<Variable>& v) {
                     return Sum(MatMul(v[0], v[1]));
                   },
                   {RandomMatrix(3, 2, &rng), RandomMatrix(2, 4, &rng)}});
  cases.push_back({"transpose_matmul",
                   [](const std::vector<Variable>& v) {
                     return Sum(MatMul(Transpose(v[0]), v[0]));
                   },
                   {RandomMatrix(3, 2, &rng)}});
  cases.push_back({"rowsum_square",
                   [](const std::vector<Variable>& v) {
                     return Sum(Square(RowSum(v[0])));
                   },
                   {RandomMatrix(3, 4, &rng)}});
  cases.push_back({"tilecols_mul",
                   [](const std::vector<Variable>& v) {
                     return Sum(Mul(TileCols(v[0], 3), v[1]));
                   },
                   {RandomVector(2, &rng), RandomMatrix(2, 3, &rng)}});
  cases.push_back({"concat_slice_cols",
                   [](const std::vector<Variable>& v) {
                     Variable c = ConcatCols(v[0], v[1]);
                     return Sum(Square(SliceCols(c, 1, 3)));
                   },
                   {RandomMatrix(2, 2, &rng), RandomMatrix(2, 2, &rng)}});
  cases.push_back({"concat1_slice1",
                   [](const std::vector<Variable>& v) {
                     Variable c = Concat1(v[0], v[1]);
                     return Sum(Square(Slice1(c, 1, 4)));
                   },
                   {RandomVector(3, &rng), RandomVector(2, &rng)}});
  cases.push_back({"gather_rows",
                   [](const std::vector<Variable>& v) {
                     return Sum(
                         Square(GatherRows(v[0], MakeIndex({0, 2, 2}))));
                   },
                   {RandomMatrix(3, 2, &rng)}});
  cases.push_back({"scatter_add_rows",
                   [](const std::vector<Variable>& v) {
                     return Sum(
                         Square(ScatterAddRows(v[0], MakeIndex({1, 1, 0}), 2)));
                   },
                   {RandomMatrix(3, 2, &rng)}});
  cases.push_back({"gather1",
                   [](const std::vector<Variable>& v) {
                     return Sum(Square(Gather1(v[0], MakeIndex({0, 0, 2}))));
                   },
                   {RandomVector(3, &rng)}});
  cases.push_back({"scatter_add1",
                   [](const std::vector<Variable>& v) {
                     return Sum(
                         Square(ScatterAdd1(v[0], MakeIndex({0, 1, 1}), 2)));
                   },
                   {RandomVector(3, &rng)}});
  cases.push_back(
      {"spmm_weights_and_features",
       [](const std::vector<Variable>& v) {
         return Sum(Square(
             SpMM(MakeIndex({0, 1, 1}), MakeIndex({1, 0, 2}), v[0], v[1], 2)));
       },
       {RandomVector(3, &rng), RandomMatrix(3, 2, &rng)}});
  cases.push_back({"edge_dot",
                   [](const std::vector<Variable>& v) {
                     return Sum(Square(EdgeDot(v[0], v[1], MakeIndex({0, 1}),
                                               MakeIndex({1, 0}))));
                   },
                   {RandomMatrix(2, 3, &rng), RandomMatrix(2, 3, &rng)}});
  // Fixed points: a draw from `rng` here would change the points of every
  // later case.
  cases.push_back({"matmul_nt",
                   [](const std::vector<Variable>& v) {
                     return Sum(Square(MatMulNT(v[0], v[1])));
                   },
                   {Tensor::FromMatrix(2, 3, {0.3, -0.7, 0.5, 1.1, 0.2, -0.4}),
                    Tensor::FromMatrix(3, 3, {-0.6, 0.8, 0.1, 0.4, -0.2, 0.9,
                                              0.7, 0.3, -0.5})}});
  cases.push_back({"selu",
                   [](const std::vector<Variable>& v) {
                     return Sum(Selu(v[0]));
                   },
                   {Tensor::FromVector({-1.5, -0.4, 0.3, 2.0})}});
  cases.push_back({"sigmoid",
                   [](const std::vector<Variable>& v) {
                     return Sum(Sigmoid(v[0]));
                   },
                   {RandomVector(4, &rng)}});
  cases.push_back({"pair_dot",
                   [](const std::vector<Variable>& v) {
                     return Sum(Square(PairDot(v[0], v[1])));
                   },
                   {RandomMatrix(3, 2, &rng), RandomMatrix(3, 2, &rng)}});
  cases.push_back({"dot",
                   [](const std::vector<Variable>& v) {
                     return Square(Dot(v[0], v[1]));
                   },
                   {RandomVector(4, &rng), RandomVector(4, &rng)}});
  cases.push_back(
      {"segment_softmax",
       [](const std::vector<Variable>& v) {
         Variable sm = SegmentSoftmax(v[0], MakeIndex({0, 0, 1, 1, 1}), 2);
         return Sum(Mul(sm, v[1]));
       },
       {RandomVector(5, &rng), RandomVector(5, &rng)}});
  cases.push_back({"squared_norm",
                   [](const std::vector<Variable>& v) {
                     return SquaredNorm(v[0]);
                   },
                   {RandomMatrix(2, 3, &rng)}});
  cases.push_back({"diamond_reuse",
                   [](const std::vector<Variable>& v) {
                     Variable s = Mul(v[0], v[0]);
                     return Sum(Add(Mul(s, v[0]), s));
                   },
                   {RandomVector(3, &rng)}});
  cases.push_back({"same_input_twice",
                   [](const std::vector<Variable>& v) {
                     return Sum(Mul(v[0], v[0]));
                   },
                   {RandomVector(3, &rng)}});
  cases.push_back({"reshape_roundtrip",
                   [](const std::vector<Variable>& v) {
                     Variable flat = Reshape(v[0], {6});
                     return Sum(Square(Reshape(flat, {3, 2})));
                   },
                   {RandomMatrix(2, 3, &rng)}});
  cases.push_back({"where_mixing",
                   [](const std::vector<Variable>& v) {
                     Tensor mask = Tensor::FromVector({1, 0, 1, 0});
                     return Sum(Square(Where(mask, v[0], v[1])));
                   },
                   {RandomVector(4, &rng), RandomVector(4, &rng)}});
  cases.push_back({"tile_then_transpose",
                   [](const std::vector<Variable>& v) {
                     return Sum(Mul(Transpose(TileCols(v[0], 2)), v[1]));
                   },
                   {RandomVector(3, &rng), RandomMatrix(2, 3, &rng)}});
  return cases;
}

const std::vector<GradCase>& Cases() {
  static const std::vector<GradCase>& cases = *new std::vector<GradCase>(
      MakeCases());
  return cases;
}

TEST_P(GradCheckTest, AnalyticMatchesFiniteDifference) {
  const GradCase& gcase = Cases()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(gcase.name);
  EXPECT_LT(MaxGradError(gcase.fn, gcase.points), kTolerance);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest,
    ::testing::Range(0, static_cast<int>(Cases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return Cases()[static_cast<size_t>(info.param)].name;
    });

class HvpCheckTest : public ::testing::TestWithParam<int> {};

// Cases with non-trivial curvature for double-backward checks.
const std::vector<GradCase>& CurvedCases() {
  static const std::vector<GradCase>& cases = *new std::vector<GradCase>([] {
    Rng rng(7);
    std::vector<GradCase> cases;
    cases.push_back({"cubic",
                     [](const std::vector<Variable>& v) {
                       return Sum(Mul(Mul(v[0], v[0]), v[0]));
                     },
                     {RandomVector(4, &rng)}});
    cases.push_back({"exp_square",
                     [](const std::vector<Variable>& v) {
                       return Sum(Exp(Square(v[0])));
                     },
                     {RandomVector(3, &rng)}});
    cases.push_back({"matmul_quartic",
                     [](const std::vector<Variable>& v) {
                       Variable g = MatMul(Transpose(v[0]), v[0]);
                       return Sum(Square(g));
                     },
                     {RandomMatrix(3, 2, &rng)}});
    cases.push_back(
        {"spmm_square",
         [](const std::vector<Variable>& v) {
           Variable out = SpMM(MakeIndex({0, 1}), MakeIndex({1, 0}), v[0],
                               TileCols(Square(v[0]), 2), 2);
           return Sum(Square(out));
         },
         {RandomVector(2, &rng)}});
    cases.push_back({"softmax_entropyish",
                     [](const std::vector<Variable>& v) {
                       Variable sm = SegmentSoftmax(
                           v[0], MakeIndex({0, 0, 0, 0}), 1);
                       return Sum(Square(sm));
                     },
                     {RandomVector(4, &rng)}});
    return cases;
  }());
  return cases;
}

TEST_P(HvpCheckTest, DoubleBackwardMatchesFiniteDifferenceOfGradient) {
  const GradCase& gcase = CurvedCases()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(gcase.name);
  Rng rng(1234 + static_cast<uint64_t>(GetParam()));
  Tensor direction(gcase.points[0].shape());
  for (int64_t i = 0; i < direction.size(); ++i)
    direction.data()[i] = rng.Uniform(-1, 1);
  EXPECT_LT(MaxHvpError(gcase.fn, gcase.points, 0, direction), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Curved, HvpCheckTest,
    ::testing::Range(0, static_cast<int>(CurvedCases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return CurvedCases()[static_cast<size_t>(info.param)].name;
    });

}  // namespace
}  // namespace msopds
