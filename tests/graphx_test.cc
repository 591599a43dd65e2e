#include "spark/graphx/graph.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sparql/id_table.h"

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
    EXPECT_EQ(*t.src_attr, static_cast<int>(t.src * 10));
    EXPECT_EQ(*t.dst_attr, static_cast<int>(t.dst * 10));
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

TEST(GraphTest, TripletsShareVertexAttributes) {
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
  std::map<VertexId, const int*> attr_of;
  for (const auto& [id, attr] : g2.vertices().Collect()) {
    attr_of[id] = attr.get();
  }
  ASSERT_EQ(attr_of.size(), 6u);
  auto triplets = g2.Triplets().Collect();
  ASSERT_EQ(triplets.size(), 5u);
  for (const auto& t : triplets) {
    EXPECT_EQ(t.src_attr.get(), attr_of.at(t.src)) << t.src << "->" << t.dst;
    EXPECT_EQ(t.dst_attr.get(), attr_of.at(t.dst)) << t.src << "->" << t.dst;
  }
}

/// One aggregateMessages round over a vector-valued attribute, from a fresh
/// context: every Metrics scalar and the simulated nanoseconds, captured
/// while triplets still carried attribute copies. Passing attributes by
/// reference must not move a single charge.
TEST(GraphTest, RoundCostMatchesValueCarryingRound) {
  SparkContext sc(SmallCluster());
  auto g = Graph<int, std::string>::FromEdges(&sc, TestEdges(), 0, 4);
  std::vector<std::pair<VertexId, std::vector<int64_t>>> attrs;
  for (VertexId id = 1; id <= 5; ++id) {
    attrs.emplace_back(id, std::vector<int64_t>(static_cast<size_t>(id), id));
  }
  auto g2 = g.OuterJoinVertices(
      Parallelize(&sc, attrs, 2),
      [](VertexId, const int&, const std::optional<std::vector<int64_t>>& a) {
        return a.value_or(std::vector<int64_t>{});
      });
  auto sums = g2.AggregateMessages<int64_t>(
                    [](const EdgeTriplet<std::vector<int64_t>, std::string>&
                           t) {
                      return std::vector<std::pair<VertexId, int64_t>>{
                          {t.dst, static_cast<int64_t>(t.src_attr->size())}};
                    },
                    [](int64_t a, int64_t b) { return a + b; })
                  .Collect();
  std::map<VertexId, int64_t> got(sums.begin(), sums.end());
  EXPECT_EQ(got, (std::map<VertexId, int64_t>{
                     {1, 3}, {2, 1}, {3, 2}, {4, 3}, {6, 5}}));

  std::map<std::string, double> metrics;
  sc.metrics().ForEachNumericField(
      [&](const std::string& name, double v) { metrics[name] = v; });
  const std::map<std::string, double> expected = {
      {"jobs", 1},
      {"stages", 9},
      {"tasks", 66},
      {"shuffle_records", 48},
      {"shuffle_bytes", 1778},
      {"remote_shuffle_bytes", 849},
      {"local_read_records", 26},
      {"remote_read_records", 22},
      {"broadcast_bytes", 0},
      {"join_comparisons", 16},
      {"records_processed", 191},
      {"messages", 5},
      {"supersteps", 1},
      {"simulated_ms", 1.70973},
      {"task_duration_ns.count", 66},
      {"task_duration_ns.mean", 100217.27272727272},
      {"task_duration_ns.p50_upper", 101990},
      {"task_duration_ns.p95_upper", 101990},
      {"task_duration_ns.max", 101990},
      {"task_duration_ns.skew_vs_mean", 1.0176888397028276},
      {"task_records.count", 66},
      {"task_records.mean", 1.5303030303030303},
      {"task_records.p50_upper", 3},
      {"task_records.p95_upper", 3},
      {"task_records.max", 5},
      {"task_records.skew_vs_mean", 3.2673267326732676},
  };
  EXPECT_EQ(metrics, expected);
  EXPECT_EQ(sc.metrics().simulated_ms.nanos(), 1709730u);
}

/// A shared attribute is charged as the value it points to.
TEST(GraphTest, SharedAttributeEstimatesAsItsValue) {
  using spark::EstimateSize;
  std::pair<int64_t, std::string> pair{7, "attribute"};
  std::vector<int32_t> vec{1, 2, 3, 4, 5};
  sparql::IdTable table(3);
  table.AppendRowFilled(9);
  table.AppendRowFilled(8);
  EXPECT_EQ(EstimateSize(std::make_shared<const decltype(pair)>(pair)),
            EstimateSize(pair));
  EXPECT_EQ(EstimateSize(std::make_shared<const decltype(vec)>(vec)),
            EstimateSize(vec));
  EXPECT_EQ(EstimateSize(std::make_shared<const sparql::IdTable>(table)),
            EstimateSize(table));
  EXPECT_EQ(EstimateSize(table), 16u + 6 * sizeof(rdf::TermId));
}

}  // namespace
}  // namespace rdfspark::spark::graphx
