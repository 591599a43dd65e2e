// Property-based sweeps of the GraphX layer: on random graphs, an
// aggregateMessages round must agree with a plain std:: reference.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "spark/graphx/graph.h"

namespace rdfspark::spark::graphx {
namespace {

struct RandomGraphParam {
  int vertices;
  int edges;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<RandomGraphParam>& info) {
  return "v" + std::to_string(info.param.vertices) + "_e" +
         std::to_string(info.param.edges) + "_s" +
         std::to_string(info.param.seed);
}

class GraphPropertyTest : public ::testing::TestWithParam<RandomGraphParam> {
 protected:
  GraphPropertyTest() : sc_(MakeConfig()) {
    Rng rng(GetParam().seed);
    std::set<std::pair<VertexId, VertexId>> seen;
    while (static_cast<int>(edges_.size()) < GetParam().edges) {
      VertexId a = static_cast<VertexId>(
          rng.Below(static_cast<uint64_t>(GetParam().vertices)));
      VertexId b = static_cast<VertexId>(
          rng.Below(static_cast<uint64_t>(GetParam().vertices)));
      if (a == b) continue;
      if (!seen.insert({a, b}).second) continue;
      edges_.push_back(Edge<int>{a, b, 0});
    }
    graph_ = Graph<int, int>::FromEdges(&sc_, edges_, 0, 4);
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig cfg;
    cfg.num_executors = 4;
    cfg.default_parallelism = 4;
    return cfg;
  }

  SparkContext sc_;
  std::vector<Edge<int>> edges_;
  Graph<int, int> graph_;
};

TEST_P(GraphPropertyTest, DegreesSumToEdgeCount) {
  // Out-degrees as one aggregateMessages round: every edge sends 1 to its
  // source.
  auto out_degrees =
      graph_
          .AggregateMessages<uint64_t>(
              [](const EdgeTriplet<int, int>& t) {
                return std::vector<std::pair<VertexId, uint64_t>>{{t.src, 1}};
              },
              [](uint64_t a, uint64_t b) { return a + b; })
          .Collect();
  std::map<VertexId, uint64_t> expected;
  for (const auto& e : edges_) ++expected[e.src];
  std::map<VertexId, uint64_t> got;
  uint64_t total = 0;
  for (const auto& [v, d] : out_degrees) {
    EXPECT_TRUE(got.emplace(v, d).second) << "duplicate vertex " << v;
    total += d;
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(total, edges_.size());
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, GraphPropertyTest,
    ::testing::Values(RandomGraphParam{8, 12, 11},
                      RandomGraphParam{20, 40, 22},
                      RandomGraphParam{30, 100, 33},
                      RandomGraphParam{50, 60, 44},
                      RandomGraphParam{15, 80, 55}),
    ParamName);

}  // namespace
}  // namespace rdfspark::spark::graphx
