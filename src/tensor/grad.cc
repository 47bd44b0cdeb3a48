#include "tensor/grad.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "tensor/simd.h"
#include "tensor/verify.h"
#include "util/logging.h"

namespace msopds {
namespace {

using internal::Node;

// The walk's plan: the requires-grad nodes reachable from the output that
// were created no earlier than the earliest requested input, in ascending
// seq order (a node created before every requested input cannot lead to
// one: its inputs are older still). `index` maps each back to its slot.
struct WalkPlan {
  std::vector<Node*> order;
  std::unordered_map<Node*, size_t> index;
};

WalkPlan PlanWalk(Node* root, uint64_t min_seq) {
  WalkPlan plan;
  if (root->seq < min_seq) return plan;
  std::vector<Node*> stack;
  stack.reserve(64);
  stack.push_back(root);
  plan.index.reserve(256);
  plan.index.emplace(root, 0);
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    plan.order.push_back(node);
    for (const Variable& input : node->inputs) {
      Node* in = input.node().get();
      if (in == nullptr || !in->requires_grad || in->seq < min_seq) continue;
      if (plan.index.emplace(in, 0).second) stack.push_back(in);
    }
  }
  std::sort(plan.order.begin(), plan.order.end(),
            [](const Node* a, const Node* b) { return a->seq < b->seq; });
  for (size_t i = 0; i < plan.order.size(); ++i) {
    plan.index[plan.order[i]] = i;
  }
  return plan;
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
// Only *needed* nodes fire: those on a path from the output to a
// requested input. One ascending sweep over the plan marks a node needed
// when it is requested or one of its inputs is needed (inputs carry
// smaller seqs, so they are decided first). Every consumer of a needed
// node is itself needed, so a needed node receives exactly the
// contributions an unpruned walk would give it.
//
// Needed nodes fire in decreasing Node::seq order. Inputs are always
// created before their consumers, so by the time a node fires every
// consumer has fired and its gradient is complete; the order does not
// depend on the order the graph's edges are discovered in. The gradient
// fold — the order contributions are added into each node's accumulator —
// is therefore canonical too, and pruning leaves it unchanged. Each op
// backward gets a mask of the inputs whose gradient the walk needs and
// computes only those; a requested node none of whose inputs is needed
// does not run its backward at all.
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

  uint64_t min_seq = std::numeric_limits<uint64_t>::max();
  for (const Variable& input : inputs) {
    MSOPDS_CHECK(input.defined());
    min_seq = std::min(min_seq, input.node()->seq);
  }
  const WalkPlan plan = PlanWalk(output.node().get(), min_seq);
  const size_t num_nodes = plan.order.size();
  auto slot_of = [&plan](const Variable& v) -> const size_t* {
    auto it = plan.index.find(v.node().get());
    return it == plan.index.end() ? nullptr : &it->second;
  };
  // A requested input outside the plan does not require grad or is not
  // reachable from the output: its gradient is zero.
  std::vector<char> requested(num_nodes, 0);
  for (const Variable& input : inputs) {
    if (const size_t* slot = slot_of(input)) requested[*slot] = 1;
  }
  std::vector<char> needed = requested;
  for (size_t i = 0; i < num_nodes; ++i) {
    const Node* node = plan.order[i];
    for (size_t k = 0; !needed[i] && k < node->inputs.size(); ++k) {
      const size_t* slot = slot_of(node->inputs[k]);
      needed[i] = slot != nullptr && needed[*slot];
    }
  }

  std::vector<Accum> accumulated(num_nodes);
  auto accumulate = [&](size_t slot, const Variable& graph_grad,
                        const Tensor& value_grad) {
    Accum& acc = accumulated[slot];
    if (create_graph) {
      acc.graph = acc.graph.defined() ? Add(acc.graph, graph_grad)
                                      : graph_grad;
    } else if (acc.value.defined()) {
      AddInPlace(&acc.value, value_grad);
    } else {
      acc.value = value_grad;
    }
  };

  if (num_nodes > 0 && needed[num_nodes - 1]) {
    // The output is the newest planned node: every other one is among its
    // inputs, transitively.
    const Tensor seed_value = grad_output.defined()
                                  ? grad_output.value()
                                  : Tensor::Ones(output.value().shape());
    MSOPDS_CHECK(seed_value.SameShape(output.value()))
        << "grad_output shape mismatch";
    Variable seed_graph;
    if (create_graph) {
      seed_graph = grad_output.defined() ? grad_output : Constant(seed_value);
    }
    accumulate(num_nodes - 1, seed_graph, seed_value);
  }

  std::vector<bool> needs_input_grad;
  std::vector<const size_t*> input_slots;
  for (size_t i = num_nodes; i-- > 0;) {
    Node* node = plan.order[i];
    Accum& acc = accumulated[i];
    // Unneeded nodes never get an accumulator; a needed node may receive
    // none when an op backward returned no gradient for it.
    if (!acc.graph.defined() && !acc.value.defined()) continue;
    // Liveness: every consumer has fired, so the accumulator is dead
    // unless the caller asked for it. Moving it out returns value-mode
    // buffers to the arena as soon as each node retires.
    const Accum grad = requested[i] ? acc : std::exchange(acc, Accum{});
    if (!node->backward) continue;  // leaf
    needs_input_grad.assign(node->inputs.size(), false);
    input_slots.assign(node->inputs.size(), nullptr);
    bool any_needed = false;
    for (size_t k = 0; k < node->inputs.size(); ++k) {
      const size_t* slot = slot_of(node->inputs[k]);
      if (slot == nullptr || !needed[*slot]) continue;
      input_slots[k] = slot;
      needs_input_grad[k] = true;
      any_needed = true;
    }
    if (!any_needed) continue;  // a requested node the walk stops at
    const Variable grad_var =
        create_graph ? grad.graph : Constant(grad.value);
    const std::vector<Variable> input_grads =
        node->backward(grad_var, node->inputs, needs_input_grad);
    MSOPDS_CHECK_EQ(input_grads.size(), node->inputs.size())
        << "op " << node->op_name;
    for (size_t k = 0; k < node->inputs.size(); ++k) {
      const Variable& ig = input_grads[k];
      if (input_slots[k] == nullptr || !ig.defined()) continue;
      const Tensor& in_value = node->inputs[k].value();
      MSOPDS_CHECK(ig.value().SameShape(in_value))
          << "gradient shape mismatch for input " << k << " of op "
          << node->op_name << ": " << ig.value().DebugString(2) << " vs "
          << in_value.DebugString(2);
      accumulate(*input_slots[k], ig, ig.value());
    }
  }

  BackwardOutputs outputs;
  if (create_graph) {
    outputs.graphs.reserve(inputs.size());
  } else {
    outputs.values.reserve(inputs.size());
  }
  for (const Variable& input : inputs) {
    const size_t* slot = slot_of(input);
    const Accum* acc = slot == nullptr ? nullptr : &accumulated[*slot];
    if (create_graph) {
      outputs.graphs.push_back(
          acc != nullptr && acc->graph.defined()
              ? acc->graph
              : Constant(Tensor::Zeros(input.value().shape())));
    } else {
      outputs.values.push_back(acc != nullptr && acc->value.defined()
                                   ? acc->value
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
