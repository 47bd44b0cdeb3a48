#ifndef MSOPDS_GRAPH_UNDIRECTED_GRAPH_H_
#define MSOPDS_GRAPH_UNDIRECTED_GRAPH_H_

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/status.h"

namespace msopds {

/// Simple undirected graph with O(1) edge lookup and adjacency lists,
/// used for both the social network G_U (over users) and the item graph
/// G_I (over items). No self-loops, no parallel edges.
class UndirectedGraph {
 public:
  UndirectedGraph() = default;
  explicit UndirectedGraph(int64_t num_nodes);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return num_edges_; }

  /// Adds an undirected edge; returns false (and does nothing) if the edge
  /// already exists or a == b. CHECK-fails on out-of-range nodes.
  bool AddEdge(int64_t a, int64_t b);

  bool HasEdge(int64_t a, int64_t b) const;

  /// Neighbor list of v (insertion order).
  const std::vector<int64_t>& Neighbors(int64_t v) const;

  int64_t Degree(int64_t v) const;

  /// All edges with a < b.
  std::vector<std::pair<int64_t, int64_t>> Edges() const;

  /// Appends both directed copies of every edge to (dst, src): for each
  /// undirected {a, b}, appends (a<-b) and (b<-a). Used by the GNN
  /// convolution kernels.
  void AppendDirectedEdges(std::vector<int64_t>* dst,
                           std::vector<int64_t>* src) const;

  /// Grows the node set (new nodes start isolated). Used to append fake
  /// user accounts to the social network.
  void AddNodes(int64_t count);

  /// Reconstructs a graph from explicit per-node adjacency lists,
  /// preserving each list's order exactly (the shard merge path: shards
  /// store adjacency slices verbatim, and Neighbors() order is part of
  /// the bit-identity contract, so the merged graph must not re-insert
  /// edges through AddEdge). Returns InvalidArgument unless the lists
  /// describe a valid simple undirected graph: every neighbor in range,
  /// no self-loops, no duplicate entries, and every a->b mirrored by
  /// b->a.
  static StatusOr<UndirectedGraph> FromAdjacency(
      std::vector<std::vector<int64_t>> adjacency);

  /// True iff both graphs have identical node counts and identical
  /// adjacency lists element-for-element (stronger than set equality:
  /// Neighbors() order must match too).
  bool SameStructure(const UndirectedGraph& other) const;

 private:
  static uint64_t EncodeEdge(int64_t a, int64_t b);

  int64_t num_nodes_ = 0;
  int64_t num_edges_ = 0;
  std::vector<std::vector<int64_t>> adjacency_;
  std::unordered_set<uint64_t> edge_set_;
};

}  // namespace msopds

#endif  // MSOPDS_GRAPH_UNDIRECTED_GRAPH_H_
