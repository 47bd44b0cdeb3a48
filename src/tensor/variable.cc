#include "tensor/variable.h"

#include <atomic>
#include <utility>

#include "util/logging.h"

namespace msopds {
namespace internal {
namespace {

std::atomic<uint64_t> g_node_seq{0};

// Per thread: Grad() may walk on several threads at once (say, games
// played in parallel), and each walk's scope must restore only its own
// thread's flag.
thread_local bool g_grad_recording = false;

#ifndef NDEBUG
bool g_leaf_mutation_guard = true;
#else
bool g_leaf_mutation_guard = false;
#endif

}  // namespace

Node::Node() : seq(g_node_seq.fetch_add(1, std::memory_order_relaxed) + 1) {}

Node::~Node() {
  for (const Variable& input : inputs) {
    Node* in = input.node().get();
    if (in == nullptr) continue;
    --in->live_consumers;
    if (in_grad_graph) --in->live_grad_consumers;
  }
}

void AttachInputs(Node* node, std::vector<Variable> inputs) {
  node->inputs = std::move(inputs);
  node->in_grad_graph = GradRecordingActive();
  node->input_generations.reserve(node->inputs.size());
  for (const Variable& input : node->inputs) {
    Node* in = input.node().get();
    node->input_generations.push_back(in ? in->value.generation() : 0);
    if (in == nullptr) continue;
    ++in->live_consumers;
    if (node->in_grad_graph) ++in->live_grad_consumers;
  }
}

bool GradRecordingActive() { return g_grad_recording; }

ScopedGradRecording::ScopedGradRecording() : previous_(g_grad_recording) {
  g_grad_recording = true;
}

ScopedGradRecording::~ScopedGradRecording() { g_grad_recording = previous_; }

bool LeafMutationGuardEnabled() { return g_leaf_mutation_guard; }

bool SetLeafMutationGuard(bool enabled) {
  const bool previous = g_leaf_mutation_guard;
  g_leaf_mutation_guard = enabled;
  return previous;
}

}  // namespace internal

Variable::Variable() = default;

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = std::make_shared<internal::Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Variable::value() const {
  MSOPDS_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  MSOPDS_CHECK(defined());
  MSOPDS_CHECK(is_leaf()) << "mutable_value() on derived node "
                          << node_->op_name;
  if (internal::LeafMutationGuardEnabled()) {
    MSOPDS_CHECK_EQ(node_->live_grad_consumers, 0)
        << "mutable_value() on a leaf still referenced by a live gradient "
           "graph from a previous Grad() call; re-differentiating that graph "
           "would use stale values. Drop the gradient Variables before "
           "stepping the optimizer.";
  }
  node_->value.BumpGeneration();
  return node_->value;
}

bool Variable::requires_grad() const {
  return defined() && node_->requires_grad;
}

bool Variable::is_leaf() const {
  MSOPDS_CHECK(defined());
  return !node_->backward;
}

const char* Variable::op_name() const {
  MSOPDS_CHECK(defined());
  return node_->op_name;
}

Variable Variable::Detach() const {
  MSOPDS_CHECK(defined());
  return Variable(node_->value, /*requires_grad=*/false);
}

Variable Variable::FromNode(std::shared_ptr<internal::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

Variable Constant(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

Variable ConstantScalar(double value) {
  return Constant(Tensor::Scalar(value));
}

Variable Param(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/true);
}

}  // namespace msopds
