#ifndef MSOPDS_TENSOR_VERIFY_H_
#define MSOPDS_TENSOR_VERIFY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tensor/gradcheck.h"
#include "tensor/variable.h"
#include "util/status.h"

namespace msopds {

// ---------------------------------------------------------------------------
// Per-op shape-inference registry. Every primitive recorded by ops.cc has an
// OpSpec describing its arity, a consistency check of the recorded output
// value against the recorded input values, and (for most ops) a small
// deterministic gradcheck example. The registry is the ground truth the
// GraphVerifier checks recorded graphs against, and the op inventory that
// registry_gradcheck_test exhaustively gradchecks.
// ---------------------------------------------------------------------------

/// A deterministic scalar-valued test point exercising one op, suitable for
/// MaxGradError / MaxHvpError.
struct GradcheckCase {
  std::string description;
  ScalarFn fn;
  std::vector<Tensor> points;
  /// Argument index to probe with the Hessian-vector product check.
  size_t hvp_arg = 0;
};

/// One chunk's destination range in flat output elements: chunk `chunk`
/// writes (only) into [begin, end). Row-strided kernels that write a
/// sub-span of each row (PadCols) report the bounding interval of their
/// rows, which is still disjoint across chunks because the span width
/// never exceeds the row stride.
struct ChunkWrite {
  int64_t chunk = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

/// Static description of a parallel kernel's writes over the ThreadPool
/// chunk grid. A pure function of input/output *shapes* — never of data,
/// the thread count, or scheduling — which is exactly why the overlap
/// check can run at verification time without executing the kernel.
struct WritePlan {
  /// ParallelFor total / grain; num_chunks == NumChunks(units, grain).
  int64_t units = 0;
  int64_t grain = 0;
  int64_t num_chunks = 0;
  /// Flat element count of the destination buffer the chunks write into
  /// (the op output, or the partial-sum buffer for reductions).
  int64_t output_elems = 0;
  /// Sequential ParallelFor launches the kernel makes (Concat1 runs one
  /// grid per operand). Chunk ids are renumbered consecutively across
  /// grids; the units/grain arithmetic check applies only when 1.
  /// Overlap is still rejected across grids — stricter than racing
  /// requires (sequential grids cannot race), but true of every kernel.
  int64_t grids = 1;
  /// Exactly one entry per chunk. VerifyWritePlan checks the ranges are
  /// in-bounds and pairwise disjoint.
  std::vector<ChunkWrite> writes;
  /// True when the union of writes must tile [0, output_elems) exactly
  /// (kernels that fully overwrite their destination). False for
  /// window/pad/scatter kernels that write a subset of a zero-filled
  /// destination.
  bool covers_output = true;
  /// True for reduction kernels (Sum): chunks write per-chunk partial
  /// slots that a fixed pairwise tree later combines in lane order.
  bool reduction = false;
  /// Order the reduction combines partial slots in; determinism requires
  /// the identity permutation 0..num_chunks-1 (the tree shape is then
  /// fixed by num_chunks alone).
  std::vector<int64_t> reduction_lanes;
};

/// Deterministic input/output shapes that exercise an op's write plan
/// with a multi-chunk grid, for registry-wide sweeps (overlap_verify_test)
/// where no recorded node supplies shapes.
struct PlanExample {
  std::vector<std::vector<int64_t>> input_shapes;
  std::vector<int64_t> output_shape;
};

struct OpSpec {
  std::string name;
  /// Expected number of *recorded* inputs (constants captured in the
  /// backward closure, e.g. Where's mask or Gather's indices, don't count).
  int arity = 0;
  /// Validates the recorded output tensor against the recorded inputs.
  /// Returns InvalidArgument with a human-readable message on mismatch.
  /// Attribute-dependent dimensions (slice bounds, scatter sizes) are
  /// checked as inequalities since the attributes live in closures.
  std::function<Status(const std::vector<const Tensor*>& inputs,
                       const Tensor& output)>
      infer;
  /// Builds a gradcheck case exercising this op, or null for ops that are
  /// only reachable as the backward of another registered op (Pad1,
  /// PadCols) and are exercised through that op's second-order check.
  std::function<GradcheckCase()> example;
  /// True when the op's kernel runs on the ThreadPool chunk grid (all of
  /// them currently do, via elementwise, row-partitioned, or
  /// destination-bucketed scheduling); such an op must carry a write_plan.
  bool parallel_kernel = false;
  /// Rebuilds the kernel's chunk grid and per-chunk write ranges from
  /// shapes (mirroring the grain constants in ops.cc). Null only for ops
  /// without a parallel kernel. Offset attributes hidden in closures
  /// (slice/pad lo) are taken as 0 — they shift every chunk's range by
  /// the same amount and cannot introduce an overlap.
  std::function<WritePlan(
      const std::vector<std::vector<int64_t>>& input_shapes,
      const std::vector<int64_t>& output_shape)>
      write_plan;
  /// Shapes for a registry-wide sweep of write_plan; chosen so the grid
  /// has several chunks (a one-chunk grid checks nothing).
  std::function<PlanExample()> plan_example;
};

/// Checks the determinism invariants of one write plan: grid arithmetic
/// consistent (num_chunks == NumChunks(units, grain)), exactly one write
/// range per chunk, all ranges in-bounds and pairwise disjoint, exact
/// coverage of [0, output_elems) when covers_output, and identity lane
/// order for reductions. Returns InvalidArgument naming the earliest
/// offending chunk pair on violation.
Status VerifyWritePlan(const std::string& op_name, const WritePlan& plan);

/// All registered primitive ops, in registration order. Defined in ops.cc
/// next to the kernels it describes.
const std::vector<OpSpec>& OpRegistry();

/// Registry lookup by op name; nullptr if unknown.
const OpSpec* FindOpSpec(const std::string& name);

// ---------------------------------------------------------------------------
// Graph verification.
// ---------------------------------------------------------------------------

enum class DiagSeverity { kWarning = 0, kError = 1 };

/// One finding from a verification pass. `node` identifies the offending
/// node for DOT highlighting and is not owned (valid only while the
/// verified graph is alive).
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  const internal::Node* node = nullptr;
  const char* op_name = "leaf";
  std::string message;
};

std::string DiagnosticToString(const Diagnostic& diagnostic);

/// Node/byte accounting for a recorded graph.
struct GraphStats {
  int64_t num_nodes = 0;
  int64_t num_leaves = 0;     // nodes with no recorded inputs
  int64_t num_params = 0;     // leaves with requires_grad
  int64_t num_edges = 0;
  int64_t value_bytes = 0;    // payload bytes across unique node tensors
  int64_t max_depth = 0;      // longest input chain, leaves at depth 1
  /// Nodes whose write plan was rebuilt and overlap-checked, and the
  /// total chunk count across those plans (the number of disjointness
  /// obligations discharged).
  int64_t num_write_planned_nodes = 0;
  int64_t num_planned_chunks = 0;
  std::map<std::string, int64_t> op_counts;
};

struct VerifyResult {
  std::vector<Diagnostic> diagnostics;
  GraphStats stats;

  bool ok() const { return num_errors() == 0; }
  int num_errors() const;
  int num_warnings() const;
  /// All diagnostics, one per line.
  std::string Report() const;
};

/// Walks a recorded autodiff DAG without executing it and checks structural
/// invariants against the op registry:
///   - per-node shape consistency (output vs inputs, via OpSpec::infer),
///   - requires_grad propagation soundness (a recorded node requires grad
///     iff one of its inputs does; interior requires-grad nodes must carry
///     a backward),
///   - cycle detection (a cycle would both break backprop's topological
///     schedule and leak the ref-counted graph),
///   - stale-input hazards (an input tensor whose generation changed after
///     the node recorded it, e.g. a leaf mutated by mutable_value()),
///   - a warning for recorded ops missing from the registry (their shapes
///     go unchecked),
///   - node/byte accounting (GraphStats).
/// The two-argument overload additionally flags requested gradient inputs
/// that are detached from `root` (not reachable, or not requiring grad):
/// Grad() returns zeros for those, which is almost always a wiring bug.
class GraphVerifier {
 public:
  struct Options {
    /// Rebuild each registered node's chunk-grid write plan from its
    /// recorded shapes and reject overlapping destination ranges or
    /// unordered reduction lanes (runs only after the shape check
    /// passes, so plans see consistent shapes).
    bool check_write_overlap = true;
  };

  GraphVerifier() = default;
  explicit GraphVerifier(const Options& options) : options_(options) {}

  VerifyResult Verify(const Variable& root) const;
  VerifyResult Verify(const Variable& root,
                      const std::vector<Variable>& inputs) const;

 private:
  Options options_;
};

/// Convenience: default-option verification of one graph.
VerifyResult VerifyGraph(const Variable& root);

/// Graphviz DOT rendering of the graph under `root`. Nodes named by op and
/// shape; params are boxes; nodes mentioned in `diagnostics` are filled red
/// (errors) or orange (warnings) with the message in the tooltip.
std::string GraphToDot(const Variable& root,
                       const std::vector<Diagnostic>& diagnostics = {});

namespace internal {

/// Auto-verification runs VerifyGraph on the output inside every top-level
/// Grad() call and CHECK-fails on error diagnostics. Defaults to on in
/// Debug builds, off in Release (compiled out of the hot path). The setter
/// returns the previous value so tests can restore it.
bool AutoVerifyEnabled();
bool SetAutoVerify(bool enabled);

/// Test-only: records a node with arbitrary value/inputs/op_name, bypassing
/// the kernels' shape checks, so tests can hand the verifier deliberately
/// malformed graphs. Consumer/generation bookkeeping is still performed.
Variable MakeTestNode(const char* op_name, Tensor value,
                      std::vector<Variable> inputs, bool requires_grad);

}  // namespace internal

}  // namespace msopds

#endif  // MSOPDS_TENSOR_VERIFY_H_
