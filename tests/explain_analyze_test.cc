// EXPLAIN ANALYZE tests.
//
// Three properties are covered:
//  1. Golden outputs: the fully annotated plan (estimates, actuals,
//     estimate error, per-node counters) is pinned verbatim for three
//     engines x three LUBM shapes. Regenerate with
//
//       RDFSPARK_PRINT_ANALYZE=1 ./explain_analyze_test
//
//     and paste the emitted table between the GOLDEN_ANALYZE markers.
//  2. Determinism: for every engine (all nine systems, all four hybrid
//     modes) and every shape, the rendered EXPLAIN ANALYZE text is
//     bit-identical between executor_threads=1 and executor_threads=8.
//     Actuals are commutative sums over the charge multiset, so threading
//     must not leak into them. Every executed operator's row count is
//     known, and every descriptive (exec-less) node renders act=?.
//  3. Consistency: on every engine, the root's actual row count equals the
//     row count a plain Execute() of the same query returns.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rdf/generator.h"
#include "rdf/store.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/haqwa.h"
#include "systems/plan/analyze.h"

namespace rdfspark::systems {
namespace {

using spark::ClusterConfig;
using spark::SparkContext;

ClusterConfig SmallCluster(int executor_threads = 1) {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  cfg.executor_threads = executor_threads;
  return cfg;
}

/// Same dataset as plan_explain_test: one small LUBM university.
const rdf::TripleStore& Dataset() {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    rdf::LubmConfig cfg;
    cfg.num_universities = 1;
    cfg.departments_per_university = 3;
    cfg.professors_per_department = 4;
    cfg.students_per_department = 20;
    cfg.courses_per_department = 5;
    s->AddAll(rdf::GenerateLubm(cfg));
    s->Dedupe();
    return s;
  }();
  return *store;
}

struct ShapeQuery {
  const char* label;
  std::string text;
};

std::vector<ShapeQuery> ShapeQueries() {
  return {
      {"star", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3)},
      {"chain", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)},
      {"snowflake", rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake)},
  };
}

/// EXPLAIN ANALYZE: executes the query's top-level basic graph pattern
/// with actuals collection and renders the annotated plan.
Result<std::string> ExplainAnalyze(BgpEngineBase& engine,
                                   const std::string& text) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root,
                            engine.ExecuteAnalyzed(query));
  return plan::ExplainAnalyze(*root);
}

const std::map<std::string, std::string>& GoldenAnalyzes() {
  static const std::map<std::string, std::string>* goldens =
      new std::map<std::string, std::string>{
          // GOLDEN_ANALYZE_BEGIN
          {"HAQWA|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=? act=12 err=-) tasks=8 busy=0.808ms
  LocalStarMatch [subject-star ?x (3 patterns)] (est=12 act=12 err=1.00x) busy=0.030ms
)PLAN"},
          {"HAQWA|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=? act=15 err=-) tasks=8 busy=0.810ms
  PartitionedHashJoin [on ?v1 (re-key)] (est=? act=15 err=-) cmp=17 shuf=22/2048B rmt=1464B reads=L6/R16 tasks=32 busy=3.220ms
    PartitionedHashJoin [on ?v2] (est=? act=12 err=-) cmp=12 shuf=11/1084B rmt=460B reads=L6/R5 tasks=32 busy=3.209ms
      LocalStarMatch [subject-star ?v2 (1 pattern)] (est=3 act=3 err=1.00x) busy=0.030ms
      LocalStarMatch [subject-star ?v1 (1 pattern)] (est=12 act=12 err=1.00x) busy=0.030ms
    LocalStarMatch [subject-star ?v0 (1 pattern)] (est=15 act=15 err=1.00x) busy=0.030ms
)PLAN"},
          {"HAQWA|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=? act=15 err=-) tasks=8 busy=0.812ms
  PartitionedHashJoin [on ?p (re-key)] (est=? act=15 err=-) cmp=17 shuf=22/2480B rmt=1768B reads=L6/R16 tasks=32 busy=3.223ms
    PartitionedHashJoin [on ?d] (est=? act=12 err=-) cmp=12 shuf=11/1324B rmt=556B reads=L6/R5 tasks=32 busy=3.210ms
      LocalStarMatch [subject-star ?d (1 pattern)] (est=3 act=3 err=1.00x) busy=0.030ms
      LocalStarMatch [subject-star ?p (2 patterns)] (est=12 act=12 err=1.00x) busy=0.030ms
    LocalStarMatch [subject-star ?x (3 patterns)] (est=15 act=15 err=1.00x) busy=0.030ms
)PLAN"},
          {"SPARQLGX|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=? act=12 err=-) tasks=2 busy=0.204ms
  PartitionedHashJoin [on ?x] (est=? act=12 err=-) cmp=12 shuf=6/4568B rmt=2236B reads=L3/R3 tasks=7 busy=0.724ms
    PartitionedHashJoin [on ?x] (est=? act=12 err=-) cmp=12 shuf=2/808B reads=L2/R0 tasks=4 busy=0.401ms
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13 act=12 err=0.92x) busy=0.001ms
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e .] (est=13 act=12 err=0.92x) busy=0.001ms
    PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128 act=127 err=0.99x) busy=0.006ms
)PLAN"},
          {"SPARQLGX|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=? act=15 err=-) tasks=1 busy=0.105ms
  PartitionedHashJoin [on ?v1] (est=? act=15 err=-) cmp=17 shuf=2/904B reads=L2/R0 tasks=4 busy=0.401ms
    PartitionedHashJoin [on ?v2] (est=? act=12 err=-) cmp=12 shuf=2/520B reads=L2/R0 tasks=4 busy=0.401ms
      PatternScan [vp ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=4 act=3 err=0.75x) busy=0.000ms
      PatternScan [vp ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=13 act=12 err=0.92x) busy=0.001ms
    PatternScan [vp ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 .] (est=16 act=15 err=0.94x) busy=0.001ms
)PLAN"},
          {"SPARQLGX|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=? act=15 err=-) tasks=2 busy=0.208ms
  PartitionedHashJoin [on ?p] (est=? act=15 err=-) cmp=15 shuf=8/6976B rmt=3536B reads=L4/R4 tasks=8 busy=0.837ms
    PartitionedHashJoin [on ?x] (est=? act=15 err=-) cmp=15 shuf=4/3680B rmt=1864B reads=L2/R2 tasks=7 busy=0.720ms
      PartitionedHashJoin [on ?d] (est=? act=15 err=-) cmp=15 shuf=3/924B rmt=164B reads=L2/R1 tasks=7 busy=0.702ms
        PartitionedHashJoin [on ?p] (est=? act=15 err=-) cmp=15 shuf=6/1416B rmt=540B reads=L3/R3 tasks=7 busy=0.707ms
          PartitionedHashJoin [on ?x] (est=? act=15 err=-) cmp=15 shuf=6/1560B rmt=828B reads=L3/R3 tasks=7 busy=0.710ms
            PatternScan [vp ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> .] (est=2 act=15 err=7.50x) busy=0.006ms
            PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=16 act=15 err=0.94x) busy=0.001ms
          PatternScan [vp ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13 act=12 err=0.92x) busy=0.001ms
        PatternScan [vp ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=4 act=3 err=0.75x) busy=0.000ms
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=61 act=60 err=0.98x) busy=0.003ms
    PatternScan [vp ?p <http://lubm.example.org/univ-bench.owl#name> ?pn .] (est=128 act=127 err=0.99x) busy=0.006ms
)PLAN"},
          {"S2RDF|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=? act=12 err=-) cmp=24 bcast=1296B tasks=4 busy=0.407ms
  PartitionedHashJoin [on t2.s = t0.s] (est=? act=? err=-)
    PartitionedHashJoin [on t1.s = t0.s] (est=? act=? err=-)
      PatternScan [vp vp_p23 t0] (est=12 act=? err=-)
      PatternScan [extvp extvp_ss_p3_p25 t1] (est=12 act=? err=-)
    PatternScan [vp vp_p25 t2] (est=12 act=? err=-)
)PLAN"},
          {"S2RDF|chain",
           R"PLAN(Project [?v2 ?v3 ?v1 ?v0] (est=? act=15 err=-) cmp=29 bcast=1458B tasks=4 busy=0.408ms
  PartitionedHashJoin [on t2.o = t1.s] (est=? act=? err=-)
    PartitionedHashJoin [on t1.o = t0.s] (est=? act=? err=-)
      PatternScan [vp vp_p7 t0] (est=3 act=? err=-)
      PatternScan [vp vp_p23 t1] (est=12 act=? err=-)
    PatternScan [vp vp_p64 t2] (est=15 act=? err=-)
)PLAN"},
          {"S2RDF|snowflake",
           R"PLAN(Project [?x ?d ?u ?p ?pn ?dm] (est=? act=15 err=-) cmp=75 bcast=2970B tasks=9 busy=0.915ms
  PartitionedHashJoin [on t5.s = t0.s AND t5.o = t2.s] (est=? act=? err=-)
    PartitionedHashJoin [on t4.s = t0.s] (est=? act=? err=-)
      PartitionedHashJoin [on t3.s = t2.s AND t3.o = t1.s] (est=? act=? err=-)
        CartesianProduct [1 = 1] (est=? act=? err=-)
          CartesianProduct [1 = 1] (est=? act=? err=-)
            PatternScan [extvp extvp_ss_p1_p64 t0] (est=15 act=? err=-)
            PatternScan [vp vp_p7 t1] (est=3 act=? err=-)
          PatternScan [extvp extvp_so_p3_p64 t2] (est=10 act=? err=-)
        PatternScan [vp vp_p23 t3] (est=12 act=? err=-)
      PatternScan [extvp extvp_ss_p60_p64 t4] (est=15 act=? err=-)
    PatternScan [vp vp_p64 t5] (est=15 act=? err=-)
)PLAN"},
          // GOLDEN_ANALYZE_END
      };
  return *goldens;
}

/// The three pinned engines: one locality-first system, one VP store, one
/// ExtVP store — together they exercise star matches, partitioned joins
/// and both scan flavors.
std::vector<EngineVariantFactory> GoldenFactories() {
  std::vector<EngineVariantFactory> out;
  for (auto& factory : AllEngineVariantFactories()) {
    if (factory.name == "HAQWA" || factory.name == "SPARQLGX" ||
        factory.name == "S2RDF") {
      out.push_back(std::move(factory));
    }
  }
  return out;
}

TEST(ExplainAnalyzeTest, MatchesGoldenOutputs) {
  bool print = std::getenv("RDFSPARK_PRINT_ANALYZE") != nullptr;
  const auto& goldens = GoldenAnalyzes();
  for (const auto& factory : GoldenFactories()) {
    for (const auto& q : ShapeQueries()) {
      // Fresh context per query: actuals accumulate per execution, so a
      // pinned output needs a pinned starting state.
      SparkContext sc(SmallCluster());
      auto engine = factory.make(&sc);
      ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
      auto analyzed = ExplainAnalyze(*engine, q.text);
      ASSERT_TRUE(analyzed.ok()) << factory.name << "/" << q.label << ": "
                                 << analyzed.status().ToString();
      std::string key = factory.name + "|" + q.label;
      if (print) {
        std::printf("          {\"%s\",\n           R\"PLAN(%s)PLAN\"},\n",
                    key.c_str(), analyzed->c_str());
        continue;
      }
      auto it = goldens.find(key);
      ASSERT_TRUE(it != goldens.end()) << "no golden for " << key;
      EXPECT_EQ(it->second, *analyzed) << key;
    }
  }
  if (!print) {
    EXPECT_EQ(goldens.size(),
              GoldenFactories().size() * ShapeQueries().size());
  }
}

/// Walks an analyzed tree in pre-order, in step with its rendered lines:
/// an operator that ran knows its output rows, and a descriptive node
/// (null exec, monostate payload) renders act=?.
void ExpectRowsKnownWhereExecuted(const plan::PlanNode& node,
                                  const std::vector<std::string>& lines,
                                  size_t* line, const std::string& label) {
  ASSERT_LT(*line, lines.size()) << label;
  const std::string& text = lines[(*line)++];
  if (node.exec) {
    ASSERT_TRUE(node.actuals != nullptr) << label << ": " << text;
    EXPECT_TRUE(node.actuals->rows_known) << label << ": " << text;
  } else {
    EXPECT_NE(text.find(" act=? "), std::string::npos) << label << ": "
                                                       << text;
  }
  for (const auto& child : node.children) {
    ExpectRowsKnownWhereExecuted(*child, lines, line, label);
  }
}

/// Per-operator actuals are sums over the charge multiset, which is fixed
/// by the plan — not by how tasks interleave. The rendered text must be
/// bit-identical between serial and pooled execution for every engine and
/// every shape.
TEST(ExplainAnalyzeTest, ActualsAreBitIdenticalAcrossThreading) {
  for (const auto& factory : AllEngineVariantFactories()) {
    for (const auto& q : ShapeQueries()) {
      const std::string label = factory.name + "/" + q.label;
      std::string serial;
      std::string pooled;
      for (auto [threads, out] :
           {std::pair<int, std::string*>{1, &serial}, {8, &pooled}}) {
        SparkContext sc(SmallCluster(threads));
        auto engine = factory.make(&sc);
        ASSERT_TRUE(engine != nullptr) << factory.name;
        ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
        auto query = sparql::ParseQuery(q.text);
        ASSERT_TRUE(query.ok()) << q.label;
        auto root = engine->ExecuteAnalyzed(*query);
        ASSERT_TRUE(root.ok()) << label << ": " << root.status().ToString();
        *out = plan::ExplainAnalyze(**root);
        std::vector<std::string> lines;
        std::istringstream rendered(*out);
        for (std::string l; std::getline(rendered, l);) lines.push_back(l);
        size_t line = 0;
        ExpectRowsKnownWhereExecuted(**root, lines, &line, label);
        EXPECT_EQ(line, lines.size()) << label;
      }
      EXPECT_EQ(serial, pooled) << label;
    }
  }
}

/// The analyzed root's actual cardinality is the query's result size.
TEST(ExplainAnalyzeTest, RootActualMatchesExecutedRowCount) {
  for (const auto& factory : AllEngineVariantFactories()) {
    for (const auto& q : ShapeQueries()) {
      SparkContext sc(SmallCluster());
      auto engine = factory.make(&sc);
      ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
      auto query = sparql::ParseQuery(q.text);
      ASSERT_TRUE(query.ok()) << q.label;
      auto executed = engine->Execute(*query);
      ASSERT_TRUE(executed.ok()) << factory.name << "/" << q.label;

      auto root = engine->ExecuteAnalyzed(*query);
      ASSERT_TRUE(root.ok()) << factory.name << "/" << q.label;
      ASSERT_TRUE((*root)->actuals != nullptr) << factory.name;
      EXPECT_TRUE((*root)->actuals->rows_known) << factory.name;
      EXPECT_EQ((*root)->actuals->rows_out, executed->num_rows())
          << factory.name << "/" << q.label;
    }
  }
}

/// Unparseable text fails with a proper status rather than garbage.
TEST(ExplainAnalyzeTest, UnplannedQueriesReportErrors) {
  SparkContext sc(SmallCluster());
  HaqwaEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto bad = ExplainAnalyze(engine, "not sparql at all");
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace rdfspark::systems
