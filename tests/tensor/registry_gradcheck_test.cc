// Exhaustive registry sweep: every op with a gradcheck example must pass
// first-order (MaxGradError) and second-order (MaxHvpError) checks, its
// example graph must verify cleanly, and the registry must cover every
// primitive ops.cc records.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/verify.h"

namespace msopds {
namespace {

constexpr double kMaxGradError = 1e-6;
constexpr double kMaxHvpError = 1e-5;

int64_t OpCount(const GraphStats& stats, const std::string& name) {
  const auto it = stats.op_counts.find(name);
  return it == stats.op_counts.end() ? 0 : it->second;
}

TEST(OpRegistryTest, CoversEveryRecordedPrimitive) {
  const std::set<std::string> expected = {
      "Add",        "Sub",        "Mul",        "Div",
      "Neg",        "ScalarMul",  "AddScalar",  "Exp",
      "Log",        "Sqrt",       "Reshape",    "Where",
      "MatMul",     "MatMulNT",   "MatMulTN",   "Transpose",
      "Sum",        "RowSum",
      "TileCols",   "ConcatCols", "SliceCols",  "PadCols",
      "Concat1",    "Slice1",     "Pad1",       "GatherRows",
      "ScatterAddRows", "Gather1", "ScatterAdd1", "SpMM",
      "EdgeDot"};
  std::set<std::string> registered;
  for (const OpSpec& spec : OpRegistry()) {
    EXPECT_TRUE(registered.insert(spec.name).second)
        << "duplicate registry entry: " << spec.name;
  }
  EXPECT_EQ(registered, expected);
}

TEST(OpRegistryTest, EverySpecHasAnInferFunction) {
  for (const OpSpec& spec : OpRegistry()) {
    EXPECT_TRUE(static_cast<bool>(spec.infer)) << spec.name;
    EXPECT_GT(spec.arity, 0) << spec.name;
  }
}

TEST(OpRegistryTest, ExamplesVerifyCleanAndExerciseTheirOp) {
  for (const OpSpec& spec : OpRegistry()) {
    if (!spec.example) continue;
    const GradcheckCase c = spec.example();
    std::vector<Variable> params;
    params.reserve(c.points.size());
    for (const Tensor& p : c.points) params.push_back(Param(p.Clone()));
    Variable out = c.fn(params);
    const VerifyResult result = GraphVerifier().Verify(out, params);
    EXPECT_TRUE(result.ok()) << spec.name << ":\n" << result.Report();
    EXPECT_TRUE(result.diagnostics.empty()) << spec.name << ":\n"
                                            << result.Report();
    EXPECT_GT(OpCount(result.stats, spec.name), 0)
        << spec.name << " example does not record the op it documents";
  }
}

TEST(OpRegistryTest, ExhaustiveFirstOrderGradcheck) {
  int checked = 0;
  for (const OpSpec& spec : OpRegistry()) {
    if (!spec.example) continue;
    const GradcheckCase c = spec.example();
    EXPECT_LT(MaxGradError(c.fn, c.points), kMaxGradError)
        << spec.name << " (" << c.description << ")";
    ++checked;
  }
  // PadCols/Pad1 are only reachable as backwards of SliceCols/Slice1.
  EXPECT_EQ(checked, static_cast<int>(OpRegistry().size()) - 2);
}

TEST(OpRegistryTest, ExhaustiveSecondOrderGradcheck) {
  for (const OpSpec& spec : OpRegistry()) {
    if (!spec.example) continue;
    const GradcheckCase c = spec.example();
    const Tensor direction = Tensor::Full(c.points[c.hvp_arg].shape(), 0.35);
    EXPECT_LT(MaxHvpError(c.fn, c.points, c.hvp_arg, direction), kMaxHvpError)
        << spec.name << " (" << c.description << ")";
  }
}

TEST(OpRegistryTest, BackwardOnlyOpsAreExercisedThroughTheirForward) {
  // The two example-less ops must appear in the gradient graphs of the ops
  // whose backward they implement, so the sweep still covers them.
  struct Pair {
    const char* forward;
    const char* backward_only;
  };
  for (const Pair& pair : {Pair{"SliceCols", "PadCols"},
                           Pair{"Slice1", "Pad1"}}) {
    const OpSpec* spec = FindOpSpec(pair.forward);
    ASSERT_NE(spec, nullptr) << pair.forward;
    ASSERT_TRUE(static_cast<bool>(spec->example)) << pair.forward;
    const GradcheckCase c = spec->example();
    std::vector<Variable> params;
    for (const Tensor& p : c.points) params.push_back(Param(p.Clone()));
    Variable out = c.fn(params);
    Variable grad = Grad(out, {params[0]})[0];
    const VerifyResult result = VerifyGraph(grad);
    EXPECT_TRUE(result.ok()) << result.Report();
    EXPECT_GT(OpCount(result.stats, pair.backward_only), 0)
        << pair.backward_only << " missing from " << pair.forward
        << "'s gradient graph";
  }
}

TEST(OpRegistryTest, FindOpSpecLookup) {
  ASSERT_NE(FindOpSpec("SpMM"), nullptr);
  EXPECT_EQ(FindOpSpec("SpMM")->arity, 2);
  EXPECT_EQ(FindOpSpec("NoSuchOp"), nullptr);
}

}  // namespace
}  // namespace msopds
