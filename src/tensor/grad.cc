#include "tensor/grad.h"

#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "tensor/simd.h"
#include "tensor/verify.h"
#include "util/logging.h"

namespace msopds {
namespace {

using internal::Node;

// Collects the set of requires-grad nodes reachable from `root` and the
// number of requires-grad consumers of each (within that set).
void CollectReachable(Node* root,
                      std::unordered_map<Node*, int>* pending_consumers) {
  std::vector<Node*> stack;
  stack.reserve(64);
  stack.push_back(root);
  pending_consumers->reserve(256);
  (*pending_consumers)[root] = 0;
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (const Variable& input : node->inputs) {
      Node* in = input.node().get();
      if (in == nullptr || !in->requires_grad) continue;
      auto [it, inserted] = pending_consumers->emplace(in, 0);
      ++it->second;
      if (inserted) stack.push_back(in);
    }
  }
}

// One gradient accumulator; exactly one member is populated: `graph` in
// Grad()'s graph mode, `value` in GradValues()'s value mode.
struct Accum {
  Variable graph;
  Tensor value;
};

// acc[i] += g[i], elementwise. Bit-identical to the Add op's kernel for
// equal-shape operands; clones first when the buffer is aliased (e.g. an
// op backward that passed its grad through).
void AddInPlace(Tensor* acc, const Tensor& g) {
  MSOPDS_CHECK(acc->SameShape(g));
  if (!acc->sole_buffer_owner()) *acc = acc->Clone();
  simd::AddInPlace(acc->data(), g.data(), acc->size());
}

struct BackwardOutputs {
  std::vector<Variable> graphs;  // create_graph mode
  std::vector<Tensor> values;    // value mode
};

// The shared reverse-mode walk behind Grad() and GradValues().
//
// Ready nodes are fired from a max-heap on Node::seq. Since inputs are
// always created before their consumers, seq order is topological, and
// max-seq-first firing visits nodes in one canonical reverse order that
// does not depend on the order the graph's edges are discovered in. The
// gradient fold — the order contributions are added into each node's
// accumulator — is therefore canonical too.
BackwardOutputs WalkBackward(const Variable& output,
                             const std::vector<Variable>& inputs,
                             const Variable& grad_output, bool create_graph) {
  MSOPDS_CHECK(output.defined());
  MSOPDS_CHECK(output.requires_grad())
      << "Grad() of an output that does not require grad";

  // Debug builds statically verify the recorded graph before walking it, so
  // a malformed graph fails loudly here instead of corrupting gradients.
  if (internal::AutoVerifyEnabled() && !internal::GradRecordingActive()) {
    const VerifyResult verification = VerifyGraph(output);
    MSOPDS_CHECK(verification.ok())
        << "autodiff graph failed verification before Grad():\n"
        << verification.Report()
        << "(use GraphToDot() on the output to visualize the failing graph)";
  }
  // Ops recorded while building the backward graph are tagged as gradient
  // consumers of their inputs; mutable_value() guards against mutating
  // leaves those live gradient graphs still reference. Value mode records
  // (and immediately drops) the same ops, so the tags balance out by the
  // time the walk returns.
  internal::ScopedGradRecording recording;

  std::unordered_map<Node*, int> pending;
  CollectReachable(output.node().get(), &pending);

  std::unordered_map<Node*, Accum> accumulated;
  accumulated.reserve(pending.size());

  auto accumulate = [&](Node* node, const Variable& graph_grad,
                        const Tensor& value_grad) {
    auto [it, inserted] = accumulated.try_emplace(node);
    if (create_graph) {
      if (it->second.graph.defined()) {
        it->second.graph = Add(it->second.graph, graph_grad);
      } else {
        it->second.graph = graph_grad;
      }
    } else {
      if (it->second.value.defined()) {
        AddInPlace(&it->second.value, value_grad);
      } else {
        it->second.value = value_grad;
      }
    }
  };

  {
    const Tensor seed_value = grad_output.defined()
                                  ? grad_output.value()
                                  : Tensor::Ones(output.value().shape());
    MSOPDS_CHECK(seed_value.SameShape(output.value()))
        << "grad_output shape mismatch";
    Variable seed_graph;
    if (create_graph) {
      seed_graph = grad_output.defined() ? grad_output : Constant(seed_value);
    }
    accumulate(output.node().get(), seed_graph, seed_value);
  }

  std::unordered_set<Node*> requested;
  requested.reserve(inputs.size());
  for (const Variable& input : inputs) {
    MSOPDS_CHECK(input.defined());
    requested.insert(input.node().get());
  }

  // Max-heap on seq; seqs are unique so the order is total.
  std::priority_queue<std::pair<uint64_t, Node*>> ready;
  ready.emplace(output.node()->seq, output.node().get());
  while (!ready.empty()) {
    Node* node = ready.top().second;
    ready.pop();
    auto acc_it = accumulated.find(node);
    MSOPDS_CHECK(acc_it != accumulated.end());
    Accum grad = std::move(acc_it->second);
    // Liveness: a fired node receives no further contributions (its
    // pending count reached zero), so its accumulator is dead unless the
    // caller asked for it. Erasing here returns value-mode buffers to the
    // arena as soon as each node retires.
    if (requested.count(node) == 0) {
      accumulated.erase(acc_it);
    } else {
      acc_it->second = grad;
    }
    if (!node->backward) continue;  // leaf
    const Variable grad_var =
        create_graph ? grad.graph : Constant(grad.value);
    const std::vector<Variable> input_grads =
        node->backward(grad_var, node->inputs);
    MSOPDS_CHECK_EQ(input_grads.size(), node->inputs.size())
        << "op " << node->op_name;
    for (size_t i = 0; i < node->inputs.size(); ++i) {
      Node* in = node->inputs[i].node().get();
      if (in == nullptr || !in->requires_grad) continue;
      const Variable& ig = input_grads[i];
      if (ig.defined()) {
        MSOPDS_CHECK(ig.value().SameShape(in->value))
            << "gradient shape mismatch for input " << i << " of op "
            << node->op_name << ": " << ig.value().DebugString(2) << " vs "
            << in->value.DebugString(2);
        accumulate(in, ig, ig.value());
      }
      auto pit = pending.find(in);
      MSOPDS_CHECK(pit != pending.end());
      if (--pit->second == 0) {
        // Only schedule nodes that actually received gradient; nodes with
        // no accumulated grad contribute nothing downstream.
        if (accumulated.count(in) > 0) ready.emplace(in->seq, in);
      }
    }
  }

  BackwardOutputs outputs;
  if (create_graph) {
    outputs.graphs.reserve(inputs.size());
  } else {
    outputs.values.reserve(inputs.size());
  }
  for (const Variable& input : inputs) {
    auto it = accumulated.find(input.node().get());
    const bool found = it != accumulated.end() && input.requires_grad();
    if (create_graph) {
      outputs.graphs.push_back(
          found ? it->second.graph
                : Constant(Tensor::Zeros(input.value().shape())));
    } else {
      outputs.values.push_back(found ? it->second.value
                                     : Tensor::Zeros(input.value().shape()));
    }
  }
  return outputs;
}

}  // namespace

std::vector<Variable> Grad(const Variable& output,
                           const std::vector<Variable>& inputs,
                           const Variable& grad_output) {
  return WalkBackward(output, inputs, grad_output, /*create_graph=*/true)
      .graphs;
}

std::vector<Tensor> GradValues(const Variable& output,
                               const std::vector<Variable>& inputs,
                               const Variable& grad_output) {
  return WalkBackward(output, inputs, grad_output, /*create_graph=*/false)
      .values;
}

Tensor HessianVectorProduct(const Variable& grad, const Variable& input,
                            const Tensor& v) {
  MSOPDS_CHECK(grad.value().SameShape(v));
  if (!grad.requires_grad()) {
    // The gradient does not depend on the input (e.g. a linear objective):
    // the Hessian is zero.
    return Tensor::Zeros(input.value().shape());
  }
  Variable inner = Dot(grad, Constant(v.Clone()));
  return GradValues(inner, {input})[0];
}

Tensor MixedVectorJacobian(const Variable& grad, const Variable& other,
                           const Tensor& xi) {
  MSOPDS_CHECK(grad.value().SameShape(xi));
  if (!grad.requires_grad()) {
    return Tensor::Zeros(other.value().shape());
  }
  Variable inner = Dot(grad, Constant(xi.Clone()));
  return GradValues(inner, {other})[0];
}

}  // namespace msopds
