#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph_stats.h"
#include "graph/item_graph_builder.h"
#include "graph/undirected_graph.h"
#include "util/rng.h"

namespace msopds {
namespace {

TEST(UndirectedGraphTest, AddAndQueryEdges) {
  UndirectedGraph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(UndirectedGraphTest, RejectsSelfLoopsAndDuplicates) {
  UndirectedGraph g(3);
  EXPECT_FALSE(g.AddEdge(1, 1));
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(UndirectedGraphTest, NeighborsAndDegree) {
  UndirectedGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.Degree(3), 1);
  const auto& n = g.Neighbors(0);
  EXPECT_EQ(n.size(), 3u);
}

TEST(UndirectedGraphTest, EdgesAreCanonical) {
  UndirectedGraph g(3);
  g.AddEdge(2, 0);
  g.AddEdge(1, 2);
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& [a, b] : edges) EXPECT_LT(a, b);
}

TEST(UndirectedGraphTest, AppendDirectedEdgesBothDirections) {
  UndirectedGraph g(3);
  g.AddEdge(0, 1);
  std::vector<int64_t> dst, src;
  g.AppendDirectedEdges(&dst, &src);
  ASSERT_EQ(dst.size(), 2u);
  // Both (0<-1) and (1<-0) present.
  const bool forward = dst[0] == 0 && src[0] == 1;
  const bool backward = dst[1] == 1 && src[1] == 0;
  EXPECT_TRUE(forward || (dst[0] == 1 && src[0] == 0));
  EXPECT_TRUE(backward || (dst[1] == 0 && src[1] == 1));
}

TEST(UndirectedGraphTest, AddNodesGrowsIsolated) {
  UndirectedGraph g(2);
  g.AddEdge(0, 1);
  g.AddNodes(2);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.Degree(3), 0);
  EXPECT_TRUE(g.AddEdge(3, 0));
}

TEST(UndirectedGraphTest, OutOfRangeHasEdgeIsFalse) {
  UndirectedGraph g(2);
  EXPECT_FALSE(g.HasEdge(-1, 0));
  EXPECT_FALSE(g.HasEdge(0, 5));
}

TEST(ItemGraphTest, ConnectsHighOverlapPairs) {
  // Items 0 and 1 share all raters; item 2 shares none.
  std::vector<RaterRecord> records = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {3, 2}};
  const UndirectedGraph g = BuildItemGraph(records, 3);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(ItemGraphTest, ThresholdExcludesWeakOverlap) {
  // Items 0 and 1: raters(0) = {0,1,2,3}, raters(1) = {0}; Jaccard = 1/4.
  std::vector<RaterRecord> records = {
      {0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 1}};
  const UndirectedGraph g = BuildItemGraph(records, 2);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(ItemGraphTest, ExactlyHalfOverlapIsExcluded) {
  // raters(0) = {0,1}, raters(1) = {0, 2} -> Jaccard = 1/3 < 0.5: excluded.
  // raters(2) = {0,1}: Jaccard(0,2) = 1.0 > 0.5: included.
  std::vector<RaterRecord> records = {{0, 0}, {1, 0}, {0, 1},
                                      {2, 1}, {0, 2}, {1, 2}};
  const UndirectedGraph g = BuildItemGraph(records, 3);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST(ItemGraphTest, MinRatersGuards) {
  std::vector<RaterRecord> records = {{0, 0}, {0, 1}};
  ItemGraphOptions options;
  options.min_raters = 2;
  const UndirectedGraph g = BuildItemGraph(records, 2, options);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(ItemGraphTest, PowerUsersAreSkipped) {
  std::vector<RaterRecord> records;
  for (int64_t i = 0; i < 10; ++i) records.push_back({0, i});
  ItemGraphOptions options;
  options.max_items_per_user = 5;
  const UndirectedGraph g = BuildItemGraph(records, 10, options);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphStatsTest, EmptyGraph) {
  const GraphStats stats = ComputeGraphStats(UndirectedGraph(0));
  EXPECT_EQ(stats.num_nodes, 0);
  EXPECT_EQ(stats.connected_components, 0);
}

TEST(GraphStatsTest, TriangleHasFullClustering) {
  UndirectedGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  const GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.connected_components, 1);
  EXPECT_EQ(stats.largest_component, 3);
  EXPECT_DOUBLE_EQ(stats.clustering_coefficient, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_degree, 2.0);
}

TEST(GraphStatsTest, PathHasZeroClustering) {
  UndirectedGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const GraphStats stats = ComputeGraphStats(g);
  EXPECT_DOUBLE_EQ(stats.clustering_coefficient, 0.0);
  EXPECT_EQ(stats.max_degree, 2);
}

TEST(GraphStatsTest, ComponentsAndIsolatedNodes) {
  UndirectedGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.connected_components, 3);
  EXPECT_EQ(stats.isolated_nodes, 1);
  EXPECT_EQ(stats.largest_component, 2);
}

TEST(GraphStatsTest, ToStringMentionsCounts) {
  UndirectedGraph g(2);
  g.AddEdge(0, 1);
  const std::string s = ComputeGraphStats(g).ToString();
  EXPECT_NE(s.find("nodes=2"), std::string::npos);
  EXPECT_NE(s.find("edges=1"), std::string::npos);
}

}  // namespace
}  // namespace msopds
