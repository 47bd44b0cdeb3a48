#include "graph/undirected_graph.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace msopds {

UndirectedGraph::UndirectedGraph(int64_t num_nodes) : num_nodes_(num_nodes) {
  MSOPDS_CHECK_GE(num_nodes, 0);
  adjacency_.resize(static_cast<size_t>(num_nodes));
}

uint64_t UndirectedGraph::EncodeEdge(int64_t a, int64_t b) {
  const uint64_t lo = static_cast<uint64_t>(std::min(a, b));
  const uint64_t hi = static_cast<uint64_t>(std::max(a, b));
  return (hi << 32) | lo;
}

bool UndirectedGraph::AddEdge(int64_t a, int64_t b) {
  MSOPDS_CHECK_GE(a, 0);
  MSOPDS_CHECK_LT(a, num_nodes_);
  MSOPDS_CHECK_GE(b, 0);
  MSOPDS_CHECK_LT(b, num_nodes_);
  if (a == b) return false;
  if (!edge_set_.insert(EncodeEdge(a, b)).second) return false;
  adjacency_[static_cast<size_t>(a)].push_back(b);
  adjacency_[static_cast<size_t>(b)].push_back(a);
  ++num_edges_;
  return true;
}

bool UndirectedGraph::HasEdge(int64_t a, int64_t b) const {
  if (a == b) return false;
  if (a < 0 || b < 0 || a >= num_nodes_ || b >= num_nodes_) return false;
  return edge_set_.count(EncodeEdge(a, b)) > 0;
}

const std::vector<int64_t>& UndirectedGraph::Neighbors(int64_t v) const {
  MSOPDS_CHECK_GE(v, 0);
  MSOPDS_CHECK_LT(v, num_nodes_);
  return adjacency_[static_cast<size_t>(v)];
}

int64_t UndirectedGraph::Degree(int64_t v) const {
  return static_cast<int64_t>(Neighbors(v).size());
}

std::vector<std::pair<int64_t, int64_t>> UndirectedGraph::Edges() const {
  std::vector<std::pair<int64_t, int64_t>> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (int64_t a = 0; a < num_nodes_; ++a) {
    for (int64_t b : adjacency_[static_cast<size_t>(a)]) {
      if (a < b) edges.emplace_back(a, b);
    }
  }
  return edges;
}

void UndirectedGraph::AppendDirectedEdges(std::vector<int64_t>* dst,
                                          std::vector<int64_t>* src) const {
  // Each undirected edge appears once per direction.
  dst->reserve(dst->size() + 2 * static_cast<size_t>(num_edges_));
  src->reserve(src->size() + 2 * static_cast<size_t>(num_edges_));
  for (int64_t a = 0; a < num_nodes_; ++a) {
    for (int64_t b : adjacency_[static_cast<size_t>(a)]) {
      dst->push_back(a);
      src->push_back(b);
    }
  }
}

void UndirectedGraph::AddNodes(int64_t count) {
  MSOPDS_CHECK_GE(count, 0);
  num_nodes_ += count;
  adjacency_.resize(static_cast<size_t>(num_nodes_));
}

StatusOr<UndirectedGraph> UndirectedGraph::FromAdjacency(
    std::vector<std::vector<int64_t>> adjacency) {
  const int64_t num_nodes = static_cast<int64_t>(adjacency.size());
  // Directed occurrences (a -> b), used both for duplicate detection and
  // for the symmetry check below.
  std::unordered_set<uint64_t> directed;
  int64_t total_entries = 0;
  for (int64_t a = 0; a < num_nodes; ++a) {
    for (int64_t b : adjacency[static_cast<size_t>(a)]) {
      if (b < 0 || b >= num_nodes) {
        return Status::InvalidArgument(StrFormat(
            "adjacency[%lld] names out-of-range node %lld (num_nodes %lld)",
            static_cast<long long>(a), static_cast<long long>(b),
            static_cast<long long>(num_nodes)));
      }
      if (b == a) {
        return Status::InvalidArgument(
            StrFormat("adjacency[%lld] contains a self-loop",
                      static_cast<long long>(a)));
      }
      const uint64_t key =
          (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
      if (!directed.insert(key).second) {
        return Status::InvalidArgument(
            StrFormat("adjacency[%lld] lists neighbor %lld twice",
                      static_cast<long long>(a), static_cast<long long>(b)));
      }
      ++total_entries;
    }
  }
  UndirectedGraph graph(num_nodes);
  for (int64_t a = 0; a < num_nodes; ++a) {
    for (int64_t b : adjacency[static_cast<size_t>(a)]) {
      const uint64_t mate =
          (static_cast<uint64_t>(b) << 32) | static_cast<uint64_t>(a);
      if (directed.count(mate) == 0) {
        return Status::InvalidArgument(StrFormat(
            "adjacency is asymmetric: %lld lists %lld but not vice versa",
            static_cast<long long>(a), static_cast<long long>(b)));
      }
      graph.edge_set_.insert(EncodeEdge(a, b));
    }
  }
  graph.adjacency_ = std::move(adjacency);
  graph.num_edges_ = total_entries / 2;
  return graph;
}

bool UndirectedGraph::SameStructure(const UndirectedGraph& other) const {
  return num_nodes_ == other.num_nodes_ && num_edges_ == other.num_edges_ &&
         adjacency_ == other.adjacency_;
}

}  // namespace msopds
