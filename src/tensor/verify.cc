#include "tensor/verify.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

using internal::Node;

std::string ShapeStr(const Tensor& t) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < t.shape().size(); ++i) {
    if (i > 0) out << ",";
    out << t.shape()[i];
  }
  out << "]";
  return out.str();
}

/// Unique nodes reachable from `root` (root first). Safe on cyclic graphs.
std::vector<Node*> CollectNodes(Node* root) {
  std::vector<Node*> nodes;
  std::vector<Node*> stack = {root};
  std::unordered_set<Node*> seen = {root};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (const Variable& input : node->inputs) {
      Node* in = input.node().get();
      if (in != nullptr && seen.insert(in).second) stack.push_back(in);
    }
  }
  return nodes;
}

/// Iterative three-color DFS; reports each node that closes a cycle.
void FindCycles(Node* root, std::vector<Diagnostic>* diagnostics) {
  enum class Color { kWhite, kGray, kBlack };
  std::unordered_map<Node*, Color> color;
  struct Frame {
    Node* node;
    size_t next_input;
  };
  std::vector<Frame> stack = {{root, 0}};
  color[root] = Color::kGray;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_input >= frame.node->inputs.size()) {
      color[frame.node] = Color::kBlack;
      stack.pop_back();
      continue;
    }
    Node* in = frame.node->inputs[frame.next_input++].node().get();
    if (in == nullptr) continue;
    auto it = color.find(in);
    if (it == color.end()) {
      color[in] = Color::kGray;
      stack.push_back({in, 0});
    } else if (it->second == Color::kGray) {
      diagnostics->push_back(
          {DiagSeverity::kError, frame.node, frame.node->op_name,
           std::string("cycle: op consumes its own (transitive) output via ") +
               in->op_name +
               "; backprop cannot be scheduled and the ref-counted graph "
               "would never be freed"});
    }
  }
}

/// Longest input chain (leaves at depth 1). Gray re-entries (cycles) are
/// treated as depth 0 so the walk terminates; FindCycles reports them.
int64_t MaxDepth(Node* root) {
  std::unordered_map<Node*, int64_t> depth;
  struct Frame {
    Node* node;
    size_t next_input;
    int64_t best_child = 0;
  };
  std::unordered_set<Node*> on_stack = {root};
  std::vector<Frame> stack = {{root, 0}};
  int64_t result = 0;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_input >= frame.node->inputs.size()) {
      const int64_t d = frame.best_child + 1;
      depth[frame.node] = d;
      result = std::max(result, d);
      on_stack.erase(frame.node);
      stack.pop_back();
      if (!stack.empty()) {
        stack.back().best_child = std::max(stack.back().best_child, d);
      }
      continue;
    }
    Node* in = frame.node->inputs[frame.next_input++].node().get();
    if (in == nullptr) continue;
    auto it = depth.find(in);
    if (it != depth.end()) {
      frame.best_child = std::max(frame.best_child, it->second);
    } else if (on_stack.insert(in).second) {
      stack.push_back({in, 0});
    }
  }
  return result;
}

void CheckNode(Node* node, const GraphVerifier::Options& options,
               std::vector<Diagnostic>* diagnostics, GraphStats* stats) {
  // Nodes with no recorded inputs are leaves for verification purposes:
  // ops over all-constant operands keep their op_name but record neither
  // inputs nor a backward (they act as constants).
  if (node->inputs.empty()) return;

  if (options.check_requires_grad) {
    bool any_input_grad = false;
    for (const Variable& input : node->inputs) {
      any_input_grad = any_input_grad || input.requires_grad();
    }
    if (node->requires_grad && !any_input_grad) {
      diagnostics->push_back(
          {DiagSeverity::kError, node, node->op_name,
           "requires_grad set but no input requires grad (unsound "
           "propagation; Grad() would differentiate a constant)"});
    } else if (!node->requires_grad && any_input_grad) {
      diagnostics->push_back(
          {DiagSeverity::kError, node, node->op_name,
           "requires_grad dropped: an input requires grad but this node "
           "does not, silently cutting its gradient path"});
    }
    if (node->requires_grad && !node->backward) {
      diagnostics->push_back(
          {DiagSeverity::kError, node, node->op_name,
           "interior requires-grad node has no backward function"});
    }
  }

  if (options.check_stale_inputs &&
      node->input_generations.size() == node->inputs.size()) {
    for (size_t i = 0; i < node->inputs.size(); ++i) {
      const Node* in = node->inputs[i].node().get();
      if (in == nullptr) continue;
      const uint64_t now = in->value.generation();
      if (now != node->input_generations[i]) {
        std::ostringstream msg;
        msg << "stale input " << i << " (" << in->op_name << " "
            << ShapeStr(in->value) << "): tensor generation " << now
            << " != " << node->input_generations[i]
            << " recorded; the input was mutated (e.g. via mutable_value()) "
               "after this op captured it";
        diagnostics->push_back(
            {DiagSeverity::kError, node, node->op_name, msg.str()});
      }
    }
  }

  if (!options.check_shapes) return;
  const OpSpec* spec = FindOpSpec(node->op_name);
  if (spec == nullptr) {
    if (options.warn_unknown_ops) {
      diagnostics->push_back(
          {DiagSeverity::kWarning, node, node->op_name,
           "op is not in the shape-inference registry; shapes unchecked"});
    }
    return;
  }
  if (spec->arity != static_cast<int>(node->inputs.size())) {
    std::ostringstream msg;
    msg << "arity mismatch: " << node->inputs.size() << " recorded inputs, "
        << "registry expects " << spec->arity;
    diagnostics->push_back(
        {DiagSeverity::kError, node, node->op_name, msg.str()});
    return;
  }
  if (!spec->infer) return;
  std::vector<const Tensor*> input_values;
  input_values.reserve(node->inputs.size());
  for (const Variable& input : node->inputs) {
    if (!input.defined()) {
      diagnostics->push_back({DiagSeverity::kError, node, node->op_name,
                              "undefined input Variable"});
      return;
    }
    input_values.push_back(&input.value());
  }
  const Status status = spec->infer(input_values, node->value);
  if (!status.ok()) {
    diagnostics->push_back({DiagSeverity::kError, node, node->op_name,
                            "shape check failed: " + status.message()});
    return;
  }

  // Write-overlap pass: rebuild the kernel's chunk grid from the recorded
  // shapes (now known consistent) and check no two chunks write the same
  // destination element. Catches a grid/kernel mismatch — the class of
  // bug that only shows up as a data race under MSOPDS_THREADS > 1 —
  // without executing anything.
  if (!options.check_write_overlap || !spec->write_plan) return;
  std::vector<std::vector<int64_t>> input_shapes;
  input_shapes.reserve(input_values.size());
  for (const Tensor* input : input_values) {
    input_shapes.push_back(input->shape());
  }
  const WritePlan plan = spec->write_plan(input_shapes, node->value.shape());
  ++stats->num_write_planned_nodes;
  stats->num_planned_chunks += plan.num_chunks;
  const Status plan_status = VerifyWritePlan(node->op_name, plan);
  if (!plan_status.ok()) {
    diagnostics->push_back(
        {DiagSeverity::kError, node, node->op_name,
         "write-overlap check failed: " + plan_status.message()});
  }
}

}  // namespace

Status VerifyWritePlan(const std::string& op_name, const WritePlan& plan) {
  auto fail = [&op_name](const std::string& message) {
    return Status::InvalidArgument(op_name + ": " + message);
  };
  auto str = [](int64_t v) { return std::to_string(v); };

  if (plan.units < 0) return fail("negative unit count " + str(plan.units));
  if (plan.grain <= 0) return fail("non-positive grain " + str(plan.grain));
  if (plan.output_elems < 0) {
    return fail("negative output size " + str(plan.output_elems));
  }
  if (plan.grids < 1) return fail("non-positive grid count " + str(plan.grids));
  const int64_t expected_chunks = NumChunks(plan.units, plan.grain);
  if (plan.grids == 1 && plan.num_chunks != expected_chunks) {
    return fail("grid mismatch: " + str(plan.num_chunks) + " chunks declared, "
                "NumChunks(" + str(plan.units) + ", " + str(plan.grain) +
                ") = " + str(expected_chunks));
  }
  if (plan.num_chunks < 0) {
    return fail("negative chunk count " + str(plan.num_chunks));
  }

  // Exactly one write range per chunk, each in-bounds. One range per
  // chunk is what makes "sort by begin, compare neighbours" a complete
  // overlap check below.
  if (static_cast<int64_t>(plan.writes.size()) != plan.num_chunks) {
    return fail(str(plan.writes.size()) + " write ranges for " +
                str(plan.num_chunks) + " chunks");
  }
  std::vector<bool> chunk_seen(static_cast<size_t>(plan.num_chunks), false);
  for (const ChunkWrite& write : plan.writes) {
    if (write.chunk < 0 || write.chunk >= plan.num_chunks) {
      return fail("chunk id " + str(write.chunk) + " outside grid of " +
                  str(plan.num_chunks));
    }
    if (chunk_seen[static_cast<size_t>(write.chunk)]) {
      return fail("chunk " + str(write.chunk) + " declares two write ranges");
    }
    chunk_seen[static_cast<size_t>(write.chunk)] = true;
    if (write.begin < 0 || write.begin > write.end ||
        write.end > plan.output_elems) {
      return fail("chunk " + str(write.chunk) + " range [" + str(write.begin) +
                  ", " + str(write.end) + ") outside output of " +
                  str(plan.output_elems) + " elements");
    }
  }

  // Pairwise disjointness (the determinism core: two chunks writing one
  // element race under MSOPDS_THREADS > 1), plus exact tiling when the
  // kernel claims full coverage.
  std::vector<ChunkWrite> sorted = plan.writes;
  std::sort(sorted.begin(), sorted.end(),
            [](const ChunkWrite& a, const ChunkWrite& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  int64_t covered = 0;
  bool contiguous = true;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0 && sorted[i].begin < sorted[i - 1].end) {
      return fail("chunks " + str(sorted[i - 1].chunk) + " and " +
                  str(sorted[i].chunk) + " both write [" +
                  str(sorted[i].begin) + ", " +
                  str(std::min(sorted[i - 1].end, sorted[i].end)) +
                  "): parallel write overlap");
    }
    if (sorted[i].begin != covered) contiguous = false;
    covered = sorted[i].end;
  }
  if (plan.covers_output && (!contiguous || covered != plan.output_elems)) {
    return fail("kernel claims full coverage but writes leave gaps in [0, " +
                str(plan.output_elems) + ")");
  }

  if (plan.reduction) {
    if (static_cast<int64_t>(plan.reduction_lanes.size()) != plan.num_chunks) {
      return fail(str(plan.reduction_lanes.size()) + " reduction lanes for " +
                  str(plan.num_chunks) + " chunks");
    }
    for (int64_t i = 0; i < plan.num_chunks; ++i) {
      if (plan.reduction_lanes[static_cast<size_t>(i)] != i) {
        return fail("reduction lane " + str(i) + " maps to chunk " +
                    str(plan.reduction_lanes[static_cast<size_t>(i)]) +
                    ": combine order is not the fixed ascending tree");
      }
    }
  } else if (!plan.reduction_lanes.empty()) {
    return fail("reduction lanes declared on a non-reduction plan");
  }
  return Status::Ok();
}

std::string DiagnosticToString(const Diagnostic& diagnostic) {
  std::ostringstream out;
  out << (diagnostic.severity == DiagSeverity::kError ? "[ERROR]" : "[WARN] ")
      << " op=" << diagnostic.op_name << ": " << diagnostic.message;
  return out.str();
}

int VerifyResult::num_errors() const {
  int count = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kError) ++count;
  }
  return count;
}

int VerifyResult::num_warnings() const {
  return static_cast<int>(diagnostics.size()) - num_errors();
}

std::string VerifyResult::Report() const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << DiagnosticToString(d) << "\n";
  }
  return out.str();
}

VerifyResult GraphVerifier::Verify(const Variable& root) const {
  VerifyResult result;
  if (!root.defined()) {
    result.diagnostics.push_back({DiagSeverity::kError, nullptr, "undefined",
                                  "root Variable is undefined"});
    return result;
  }

  if (options_.check_cycles) {
    FindCycles(root.node().get(), &result.diagnostics);
    // A cyclic graph has no well-defined node checks beyond the cycle
    // report, and the accounting walks are guarded but meaningless.
    if (!result.diagnostics.empty()) return result;
  }

  const std::vector<Node*> nodes = CollectNodes(root.node().get());
  // Buffer-identity dedup: tensors aliasing one storage (shallow copies,
  // zero-copy views) count once toward the arena footprint.
  std::unordered_set<const void*> seen_buffers;
  seen_buffers.reserve(nodes.size());
  for (Node* node : nodes) {
    CheckNode(node, options_, &result.diagnostics, &result.stats);
    ++result.stats.num_nodes;
    result.stats.num_edges += static_cast<int64_t>(node->inputs.size());
    const int64_t payload =
        node->value.size() * static_cast<int64_t>(sizeof(double));
    result.stats.value_bytes += payload;
    const void* buffer = node->value.buffer_id();
    if (buffer != nullptr && seen_buffers.insert(buffer).second) {
      result.stats.live_bytes += payload;
      if (!node->inputs.empty()) result.stats.releasable_bytes += payload;
    }
    if (node->inputs.empty()) {
      ++result.stats.num_leaves;
      if (node->requires_grad) ++result.stats.num_params;
    } else if (const OpSpec* spec = FindOpSpec(node->op_name);
               spec != nullptr && spec->parallel_kernel) {
      ++result.stats.num_parallel_kernel_nodes;
    }
    ++result.stats.op_counts[node->op_name];
  }
  result.stats.max_depth = MaxDepth(root.node().get());

  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return result;
}

VerifyResult GraphVerifier::Verify(const Variable& root,
                                   const std::vector<Variable>& inputs) const {
  VerifyResult result = Verify(root);
  if (!root.defined()) return result;

  std::unordered_set<const Node*> reachable;
  for (Node* node : CollectNodes(root.node().get())) reachable.insert(node);

  for (size_t i = 0; i < inputs.size(); ++i) {
    std::ostringstream msg;
    if (!inputs[i].defined()) {
      msg << "gradient input " << i << " is undefined";
      result.diagnostics.push_back(
          {DiagSeverity::kError, nullptr, "input", msg.str()});
      continue;
    }
    const Node* node = inputs[i].node().get();
    if (!inputs[i].requires_grad()) {
      msg << "gradient input " << i << " (" << ShapeStr(inputs[i].value())
          << ") does not require grad; Grad() will return zeros";
      result.diagnostics.push_back(
          {DiagSeverity::kWarning, node, node->op_name, msg.str()});
    } else if (reachable.count(node) == 0) {
      msg << "gradient input " << i << " (" << ShapeStr(inputs[i].value())
          << ") is detached from the output graph (dead subgraph: Detach() "
             "upstream or wrong Variable handle); Grad() will return zeros";
      result.diagnostics.push_back(
          {DiagSeverity::kWarning, node, node->op_name, msg.str()});
    }
  }
  return result;
}

VerifyResult VerifyGraph(const Variable& root) {
  return GraphVerifier().Verify(root);
}

std::string GraphToDot(const Variable& root,
                       const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "digraph autodiff {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n";
  if (!root.defined()) {
    out << "}\n";
    return out.str();
  }
  std::unordered_map<const Node*, const Diagnostic*> flagged;
  for (const Diagnostic& d : diagnostics) {
    if (d.node != nullptr && flagged.count(d.node) == 0) flagged[d.node] = &d;
  }
  const std::vector<Node*> nodes = CollectNodes(root.node().get());
  std::unordered_map<const Node*, size_t> ids;
  for (size_t i = 0; i < nodes.size(); ++i) ids[nodes[i]] = i;
  for (const Node* node : nodes) {
    out << "  n" << ids[node] << " [label=\"" << node->op_name << "\\n"
        << ShapeStr(node->value) << "\"";
    if (node->inputs.empty()) {
      out << ", shape=box";
      if (node->requires_grad) out << ", peripheries=2";
    }
    auto it = flagged.find(node);
    if (it != flagged.end()) {
      out << ", style=filled, fillcolor="
          << (it->second->severity == DiagSeverity::kError ? "salmon"
                                                           : "orange");
      std::string tooltip = it->second->message;
      for (char& c : tooltip) {
        if (c == '"') c = '\'';
      }
      out << ", tooltip=\"" << tooltip << "\"";
    }
    out << "];\n";
  }
  for (const Node* node : nodes) {
    for (const Variable& input : node->inputs) {
      const Node* in = input.node().get();
      if (in == nullptr) continue;
      out << "  n" << ids[in] << " -> n" << ids[node] << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

namespace internal {
namespace {

#ifndef NDEBUG
bool g_auto_verify = true;
#else
bool g_auto_verify = false;
#endif

}  // namespace

bool AutoVerifyEnabled() { return g_auto_verify; }

bool SetAutoVerify(bool enabled) {
  const bool previous = g_auto_verify;
  g_auto_verify = enabled;
  return previous;
}

Variable MakeTestNode(const char* op_name, Tensor value,
                      std::vector<Variable> inputs, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->op_name = op_name;
  const size_t num_inputs = inputs.size();
  AttachInputs(node.get(), std::move(inputs));
  // A structurally valid (if useless) backward, so tests seeding one defect
  // (say, a shape mismatch) don't also trip the missing-backward check.
  node->backward = [num_inputs](const Variable&, const std::vector<Variable>&,
                                 const std::vector<bool>&) {
    return std::vector<Variable>(num_inputs);
  };
  return Variable::FromNode(std::move(node));
}

}  // namespace internal

}  // namespace msopds
