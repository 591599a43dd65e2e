#include "spark/graphframes/graphframe.h"

#include <gtest/gtest.h>

namespace rdfspark::spark::graphframes {
namespace {

using sql::Col;
using sql::DataFrame;
using sql::DataType;
using sql::Field;
using sql::Lit;
using sql::Row;
using sql::Schema;

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 2;
  return cfg;
}

GraphFrame SocialGraph(SparkContext* sc) {
  Schema vschema{{Field{"id", DataType::kString},
                  Field{"age", DataType::kInt64}}};
  std::vector<Row> vrows = {
      {std::string("alice"), int64_t{30}},
      {std::string("bob"), int64_t{25}},
      {std::string("carol"), int64_t{35}},
  };
  Schema eschema{{Field{"src", DataType::kString},
                  Field{"dst", DataType::kString},
                  Field{"rel", DataType::kString}}};
  std::vector<Row> erows = {
      {std::string("alice"), std::string("bob"), std::string("knows")},
      {std::string("bob"), std::string("carol"), std::string("knows")},
      {std::string("alice"), std::string("carol"), std::string("likes")},
  };
  return GraphFrame(DataFrame::FromRows(sc, vschema, vrows, 2),
                    DataFrame::FromRows(sc, eschema, erows, 2));
}

TEST(MotifParserTest, ParsesChain) {
  auto motif = ParseMotif("(a)-[e]->(b); (b)-[f]->(c)");
  ASSERT_TRUE(motif.ok()) << motif.status().ToString();
  ASSERT_EQ(motif->size(), 2u);
  EXPECT_EQ((*motif)[0].src, "a");
  EXPECT_EQ((*motif)[0].edge, "e");
  EXPECT_EQ((*motif)[1].dst, "c");
}

TEST(MotifParserTest, AnonymousElements) {
  auto motif = ParseMotif("()-[]->(b)");
  ASSERT_TRUE(motif.ok()) << motif.status().ToString();
  EXPECT_TRUE((*motif)[0].src.empty());
  EXPECT_TRUE((*motif)[0].edge.empty());
  EXPECT_EQ((*motif)[0].dst, "b");
}

TEST(MotifParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseMotif("").ok());
  EXPECT_FALSE(ParseMotif("(a)-[e]-(b)").ok());
  EXPECT_FALSE(ParseMotif("a-[e]->(b)").ok());
}

TEST(GraphFrameTest, SingleEdgeMotif) {
  SparkContext sc(SmallCluster());
  auto gf = SocialGraph(&sc);
  auto result = gf.FindMotif("(a)-[e]->(b)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 3u);
  EXPECT_GE(result->schema().Index("a"), 0);
  EXPECT_GE(result->schema().Index("e.rel"), 0);
  EXPECT_GE(result->schema().Index("a.age"), 0);
}

TEST(GraphFrameTest, ChainMotifJoins) {
  SparkContext sc(SmallCluster());
  auto gf = SocialGraph(&sc);
  auto result = gf.FindMotif("(a)-[e]->(b); (b)-[f]->(c)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // alice->bob->carol is the only 2-hop chain.
  ASSERT_EQ(result->NumRows(), 1u);
  auto rows = result->Collect();
  int a_idx = result->schema().Index("a");
  int c_idx = result->schema().Index("c");
  EXPECT_EQ(std::get<std::string>(rows[0][static_cast<size_t>(a_idx)]),
            "alice");
  EXPECT_EQ(std::get<std::string>(rows[0][static_cast<size_t>(c_idx)]),
            "carol");
}

TEST(GraphFrameTest, FilterEdgesPrunesSearchSpace) {
  SparkContext sc(SmallCluster());
  auto gf = SocialGraph(&sc);
  auto pruned = gf.FilterEdges(Col("rel") == Lit("knows"));
  EXPECT_EQ(pruned.edges().NumRows(), 2u);
  auto result = pruned.FindMotif("(a)-[e]->(b)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumRows(), 2u);
}

TEST(GraphFrameTest, TriangleMotifOnCycle) {
  SparkContext sc(SmallCluster());
  Schema vschema{{Field{"id", DataType::kInt64}}};
  Schema eschema{{Field{"src", DataType::kInt64},
                  Field{"dst", DataType::kInt64}}};
  std::vector<Row> vrows = {{int64_t{1}}, {int64_t{2}}, {int64_t{3}}};
  std::vector<Row> erows = {{int64_t{1}, int64_t{2}},
                            {int64_t{2}, int64_t{3}},
                            {int64_t{3}, int64_t{1}}};
  GraphFrame gf(DataFrame::FromRows(&sc, vschema, vrows, 1),
                DataFrame::FromRows(&sc, eschema, erows, 1));
  auto result = gf.FindMotif("(a)-[]->(b); (b)-[]->(c); (c)-[]->(a)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 3u);  // 3 rotations of the one triangle
}

}  // namespace
}  // namespace rdfspark::spark::graphframes
