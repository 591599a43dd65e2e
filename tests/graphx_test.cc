#include "spark/graphx/graph.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

namespace rdfspark::spark::graphx {
namespace {

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 4;
  return cfg;
}

/// A small directed graph:
///   1 -> 2 -> 3 -> 1   (triangle)
///   3 -> 4
///   5 -> 6              (separate component)
std::vector<Edge<std::string>> TestEdges() {
  return {
      {1, 2, "a"}, {2, 3, "b"}, {3, 1, "c"}, {3, 4, "d"}, {5, 6, "e"},
  };
}

TEST(GraphTest, FromEdgesDerivesVertices) {
  SparkContext sc(SmallCluster());
  auto g = Graph<int, std::string>::FromEdges(&sc, TestEdges(), 0, 4);
  EXPECT_EQ(g.NumVertices(), 6u);
  EXPECT_EQ(g.NumEdges(), 5u);
}

TEST(GraphTest, TripletsCarryBothAttrs) {
  SparkContext sc(SmallCluster());
  auto g = Graph<int, std::string>::FromEdges(&sc, TestEdges(), 0, 4);
  std::vector<std::pair<VertexId, int>> attrs;
  for (VertexId id = 1; id <= 6; ++id) {
    attrs.emplace_back(id, static_cast<int>(id * 10));
  }
  auto g2 = g.OuterJoinVertices(
      Parallelize(&sc, attrs, 2),
      [](VertexId, const int&, const std::optional<int>& attr) {
        return attr.value_or(-1);
      });
  auto triplets = g2.Triplets().Collect();
  ASSERT_EQ(triplets.size(), 5u);
  for (const auto& t : triplets) {
    EXPECT_EQ(t.src_attr, static_cast<int>(t.src * 10));
    EXPECT_EQ(t.dst_attr, static_cast<int>(t.dst * 10));
  }
}

TEST(GraphTest, AggregateMessagesComputesInDegrees) {
  SparkContext sc(SmallCluster());
  auto g = Graph<int, std::string>::FromEdges(&sc, TestEdges(), 0, 4);
  auto before_msgs = sc.metrics().messages;
  auto in_degrees = g.AggregateMessages<uint64_t>(
      [](const EdgeTriplet<int, std::string>& t) {
        return std::vector<std::pair<VertexId, uint64_t>>{{t.dst, 1}};
      },
      [](uint64_t a, uint64_t b) { return a + b; });
  auto rows = in_degrees.Collect();
  std::map<VertexId, uint64_t> m(rows.begin(), rows.end());
  EXPECT_EQ(m[1], 1u);
  EXPECT_EQ(m[3], 1u);
  EXPECT_EQ(m[4], 1u);
  EXPECT_EQ(sc.metrics().messages - before_msgs, 5u);
}

}  // namespace
}  // namespace rdfspark::spark::graphx
