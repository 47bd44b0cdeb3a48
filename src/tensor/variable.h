#ifndef MSOPDS_TENSOR_VARIABLE_H_
#define MSOPDS_TENSOR_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace msopds {

class Variable;

namespace internal {

/// One recorded operation (or leaf) in the autodiff DAG.
///
/// `backward` maps the gradient w.r.t. this node's output to gradients
/// w.r.t. each input, *expressed as Variables built from recorded ops*.
/// Because every backward is itself a composition of recorded ops, the
/// gradient graph is differentiable again, giving exact higher-order
/// derivatives (required by MSO's Hessian-vector products, Algorithm 1
/// steps 9-10 of the paper).
///
/// `needs_input_grad` (parallel to `inputs`) is filled in by the backward
/// walk: true for each input on a path to a gradient the caller asked
/// for. A backward computes only those and returns an undefined Variable
/// for every other input; the walk never calls it with an all-false mask.
/// A single-input op may ignore the mask.
struct Node {
  using BackwardFn = std::function<std::vector<Variable>(
      const Variable& grad_output, const std::vector<Variable>& inputs,
      const std::vector<bool>& needs_input_grad)>;

  Tensor value;
  bool requires_grad = false;
  std::vector<Variable> inputs;
  BackwardFn backward;
  const char* op_name = "leaf";

  /// Version stamps of each input's tensor at record time (parallel to
  /// `inputs`). GraphVerifier flags nodes whose inputs were mutated after
  /// recording — re-differentiating such a graph silently uses stale
  /// values.
  std::vector<uint64_t> input_generations;

  /// Number of live recorded nodes holding this node as an input, and the
  /// subset of those recorded while Grad() was building a gradient graph.
  /// Maintained by AttachInputs()/~Node. mutable_value() refuses (in
  /// Debug) to mutate a leaf with live gradient-graph consumers; forward
  /// graphs routinely outlive one optimizer step, so they are counted
  /// separately and not guarded.
  int live_consumers = 0;
  int live_grad_consumers = 0;
  bool in_grad_graph = false;

  /// Process-wide creation order (1, 2, 3, ...). A node's inputs always
  /// carry smaller seq values than the node itself, so firing nodes in
  /// decreasing seq order yields one canonical reverse-topological
  /// backward walk. Grad() relies on this: the walk order — and therefore
  /// the floating-point fold of accumulated gradients — is fixed by the
  /// recording alone.
  uint64_t seq = 0;

  Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node();
};

/// Records `inputs` on `node`: stores them, snapshots their tensor
/// generations, and increments their consumer counts (paired with the
/// decrements in ~Node). Every recorded op must attach inputs through
/// this helper so the verifier's bookkeeping stays consistent.
void AttachInputs(Node* node, std::vector<Variable> inputs);

/// True while Grad() is recording backward ops on the calling thread;
/// nodes recorded in that scope are tagged as gradient-graph consumers of
/// their inputs.
bool GradRecordingActive();

/// RAII scope used by Grad() to tag recorded nodes as gradient-graph
/// nodes. Nests (HVP calls Grad on a graph built by Grad). The flag is
/// per thread, so scopes on different threads do not interact.
class ScopedGradRecording {
 public:
  ScopedGradRecording();
  ScopedGradRecording(const ScopedGradRecording&) = delete;
  ScopedGradRecording& operator=(const ScopedGradRecording&) = delete;
  ~ScopedGradRecording();

 private:
  bool previous_;
};

/// The leaf-mutation guard makes Variable::mutable_value() CHECK-fail on
/// a leaf with live gradient-graph consumers. Defaults to on in Debug
/// builds (NDEBUG not defined), off in Release; the setter returns the
/// previous value so tests can restore it.
bool LeafMutationGuardEnabled();
bool SetLeafMutationGuard(bool enabled);

}  // namespace internal

/// A node handle in the autodiff graph: a Tensor value plus (optionally)
/// the recorded operation that produced it. Copies are shallow; the graph
/// is reference-counted and freed when the last handle dies (no global
/// tape).
class Variable {
 public:
  /// Undefined variable (used for "no gradient").
  Variable();

  /// Leaf holding `value`. Only leaves with requires_grad can receive
  /// gradients from Grad().
  explicit Variable(Tensor value, bool requires_grad = false);

  /// True unless default-constructed.
  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const;

  /// Mutable access to the leaf's tensor, for optimizer in-place updates.
  /// CHECK-fails on non-leaf nodes (their values are derived).
  Tensor& mutable_value();

  bool requires_grad() const;
  bool is_leaf() const;
  const char* op_name() const;

  /// A new leaf sharing this variable's value but cut from the graph.
  Variable Detach() const;

  /// Internal: used by ops.cc and grad.cc.
  const std::shared_ptr<internal::Node>& node() const { return node_; }
  static Variable FromNode(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

/// Leaf constant (requires_grad = false).
Variable Constant(Tensor value);

/// Scalar constant.
Variable ConstantScalar(double value);

/// Leaf parameter (requires_grad = true).
Variable Param(Tensor value);

}  // namespace msopds

#endif  // MSOPDS_TENSOR_VARIABLE_H_
