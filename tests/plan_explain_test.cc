// Golden EXPLAIN tests: the physical plan each engine reports for the
// canonical LUBM query shapes is pinned verbatim. A changed plan shape is a
// deliberate planner change — regenerate with
//
//   RDFSPARK_PRINT_EXPLAIN=1 ./plan_explain_test
//
// and paste the emitted tables between the GOLDEN_EXPLAIN markers (plain
// BGP shapes) and the GOLDEN_GROUP_EXPLAIN markers (group queries).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

#include "rdf/generator.h"
#include "rdf/store.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/hybrid.h"

namespace rdfspark::systems {
namespace {

using spark::ClusterConfig;
using spark::SparkContext;

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

/// Same dataset as engines_test: one small LUBM university.
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

/// EXPLAIN of the query's top-level basic graph pattern: PlanBgp's tree,
/// which is PlanQuery's whole plan for these plain-BGP shapes.
Result<std::string> Explain(BgpEngineBase& engine, const std::string& text) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root,
                            engine.PlanBgp(query.where.bgp));
  return plan::Explain(*root);
}

const std::map<std::string, std::string>& GoldenExplains() {
  static const std::map<std::string, std::string>* goldens =
      new std::map<std::string, std::string>{
          // GOLDEN_EXPLAIN_BEGIN
          {"HAQWA|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  LocalStarMatch [subject-star ?x (3 patterns)] (est=12)
)PLAN"},
          {"HAQWA|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  PartitionedHashJoin [on ?v1 (re-key)] (est=?)
    PartitionedHashJoin [on ?v2] (est=?)
      LocalStarMatch [subject-star ?v2 (1 pattern)] (est=3)
      LocalStarMatch [subject-star ?v1 (1 pattern)] (est=12)
    LocalStarMatch [subject-star ?v0 (1 pattern)] (est=15)
)PLAN"},
          {"HAQWA|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  PartitionedHashJoin [on ?p (re-key)] (est=?)
    PartitionedHashJoin [on ?d] (est=?)
      LocalStarMatch [subject-star ?d (1 pattern)] (est=3)
      LocalStarMatch [subject-star ?p (2 patterns)] (est=12)
    LocalStarMatch [subject-star ?x (3 patterns)] (est=15)
)PLAN"},
          {"SPARQLGX|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  PartitionedHashJoin [on ?x] (est=?)
    PartitionedHashJoin [on ?x] (est=?)
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e .] (est=13)
    PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128)
)PLAN"},
          {"SPARQLGX|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  PartitionedHashJoin [on ?v1] (est=?)
    PartitionedHashJoin [on ?v2] (est=?)
      PatternScan [vp ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=4)
      PatternScan [vp ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=13)
    PatternScan [vp ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 .] (est=16)
)PLAN"},
          {"SPARQLGX|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  PartitionedHashJoin [on ?p] (est=?)
    PartitionedHashJoin [on ?x] (est=?)
      PartitionedHashJoin [on ?d] (est=?)
        PartitionedHashJoin [on ?p] (est=?)
          PartitionedHashJoin [on ?x] (est=?)
            PatternScan [vp ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> .] (est=2)
            PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=16)
          PatternScan [vp ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
        PatternScan [vp ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=4)
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=61)
    PatternScan [vp ?p <http://lubm.example.org/univ-bench.owl#name> ?pn .] (est=128)
)PLAN"},
          {"S2RDF|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  PartitionedHashJoin [on t2.s = t0.s] (est=?)
    PartitionedHashJoin [on t1.s = t0.s] (est=?)
      PatternScan [vp vp_p23 t0] (est=12)
      PatternScan [extvp extvp_ss_p3_p25 t1] (est=12)
    PatternScan [vp vp_p25 t2] (est=12)
)PLAN"},
          {"S2RDF|chain",
           R"PLAN(Project [?v2 ?v3 ?v1 ?v0] (est=?)
  PartitionedHashJoin [on t2.o = t1.s] (est=?)
    PartitionedHashJoin [on t1.o = t0.s] (est=?)
      PatternScan [vp vp_p7 t0] (est=3)
      PatternScan [vp vp_p23 t1] (est=12)
    PatternScan [vp vp_p64 t2] (est=15)
)PLAN"},
          {"S2RDF|snowflake",
           R"PLAN(Project [?x ?d ?u ?p ?pn ?dm] (est=?)
  PartitionedHashJoin [on t5.s = t0.s AND t5.o = t2.s] (est=?)
    PartitionedHashJoin [on t4.s = t0.s] (est=?)
      PartitionedHashJoin [on t3.s = t2.s AND t3.o = t1.s] (est=?)
        CartesianProduct [1 = 1] (est=?)
          CartesianProduct [1 = 1] (est=?)
            PatternScan [extvp extvp_ss_p1_p64 t0] (est=15)
            PatternScan [vp vp_p7 t1] (est=3)
          PatternScan [extvp extvp_so_p3_p64 t2] (est=10)
        PatternScan [vp vp_p23 t3] (est=12)
      PatternScan [extvp extvp_ss_p60_p64 t4] (est=15)
    PatternScan [vp vp_p64 t5] (est=15)
)PLAN"},
          {"Hybrid_SparkSQL_naive|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  CartesianProduct [cross-join + filter] (est=?)
    CartesianProduct [cross-join + filter] (est=?)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128)
    PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e .] (est=13)
)PLAN"},
          {"Hybrid_SparkSQL_naive|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  CartesianProduct [cross-join + filter] (est=?)
    CartesianProduct [cross-join + filter] (est=?)
      PatternScan [full-scan ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 .] (est=16)
      PatternScan [full-scan ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=13)
    PatternScan [full-scan ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=4)
)PLAN"},
          {"Hybrid_SparkSQL_naive|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  CartesianProduct [cross-join + filter] (est=?)
    CartesianProduct [cross-join + filter] (est=?)
      CartesianProduct [cross-join + filter] (est=?)
        CartesianProduct [cross-join + filter] (est=?)
          CartesianProduct [cross-join + filter] (est=?)
            PatternScan [full-scan ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> .] (est=2)
            PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=61)
          PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=16)
        PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#name> ?pn .] (est=128)
    PatternScan [full-scan ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=4)
)PLAN"},
          {"Hybrid_RDD_partitioned|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  PartitionedHashJoin [on ?x] (est=?)
    PartitionedHashJoin [on ?x] (est=?)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128)
    PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e .] (est=13)
)PLAN"},
          {"Hybrid_RDD_partitioned|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  PartitionedHashJoin [on ?v2] (est=?)
    PartitionedHashJoin [on ?v1] (est=?)
      PatternScan [full-scan ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 .] (est=16)
      PatternScan [full-scan ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=13)
    PatternScan [full-scan ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=4)
)PLAN"},
          {"Hybrid_RDD_partitioned|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  PartitionedHashJoin [on ?d] (est=?)
    PartitionedHashJoin [on ?p] (est=?)
      PartitionedHashJoin [on ?p] (est=?)
        PartitionedHashJoin [on ?x] (est=?)
          PartitionedHashJoin [on ?x] (est=?)
            PatternScan [full-scan ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> .] (est=2)
            PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=61)
          PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=16)
        PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#name> ?pn .] (est=128)
    PatternScan [full-scan ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=4)
)PLAN"},
          {"Hybrid_DataFrame_broadcast|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  BroadcastJoin [on ?x] (est=?)
    BroadcastJoin [on ?x] (est=?)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128)
    PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e .] (est=13)
)PLAN"},
          {"Hybrid_DataFrame_broadcast|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  BroadcastJoin [on ?v2] (est=?)
    BroadcastJoin [on ?v1] (est=?)
      PatternScan [full-scan ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 .] (est=16)
      PatternScan [full-scan ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=13)
    PatternScan [full-scan ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=4)
)PLAN"},
          {"Hybrid_DataFrame_broadcast|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  BroadcastJoin [on ?d] (est=?)
    BroadcastJoin [on ?p] (est=?)
      BroadcastJoin [on ?p] (est=?)
        BroadcastJoin [on ?x] (est=?)
          BroadcastJoin [on ?x] (est=?)
            PatternScan [full-scan ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> .] (est=2)
            PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=61)
          PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=16)
        PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#name> ?pn .] (est=128)
    PatternScan [full-scan ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=4)
)PLAN"},
          {"Hybrid_Hybrid|star",
           R"PLAN(Project [?x ?d ?e ?n] (est=?)
  BroadcastJoin [on ?x] (est=13)
    BroadcastJoin [on ?x] (est=13)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e .] (est=13)
    PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128)
)PLAN"},
          {"Hybrid_Hybrid|chain",
           R"PLAN(Project [?v2 ?v3 ?v1 ?v0] (est=?)
  BroadcastJoin [on ?v1] (est=4)
    BroadcastJoin [on ?v2] (est=4)
      PatternScan [full-scan ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=4)
      PatternScan [full-scan ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=13)
    PatternScan [full-scan ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 .] (est=16)
)PLAN"},
          {"Hybrid_Hybrid|snowflake",
           R"PLAN(Project [?x ?p ?d ?u ?dm ?pn] (est=?)
  BroadcastJoin [on ?p] (est=2)
    BroadcastJoin [on ?x] (est=2)
      BroadcastJoin [on ?d] (est=2)
        BroadcastJoin [on ?p] (est=2)
          BroadcastJoin [on ?x] (est=2)
            PatternScan [full-scan ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> .] (est=2)
            PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=16)
          PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
        PatternScan [full-scan ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=4)
      PatternScan [full-scan ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=61)
    PatternScan [full-scan ?p <http://lubm.example.org/univ-bench.owl#name> ?pn .] (est=128)
)PLAN"},
          {"S2X|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  PartitionedHashJoin [on ?x] (est=?)
    PartitionedHashJoin [on ?x] (est=?)
      PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (pruned)] (est=12)
      PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#name> ?n . (pruned)] (est=127)
    PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e . (pruned)] (est=12)
)PLAN"},
          {"S2X|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  PartitionedHashJoin [on ?v2] (est=?)
    PartitionedHashJoin [on ?v1] (est=?)
      PatternScan [graph ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 . (pruned)] (est=15)
      PatternScan [graph ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 . (pruned)] (est=12)
    PatternScan [graph ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 . (pruned)] (est=3)
)PLAN"},
          {"S2X|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  PartitionedHashJoin [on ?d] (est=?)
    PartitionedHashJoin [on ?p] (est=?)
      PartitionedHashJoin [on ?p] (est=?)
        PartitionedHashJoin [on ?x] (est=?)
          PartitionedHashJoin [on ?x] (est=?)
            PatternScan [graph ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> . (pruned)] (est=127)
            PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm . (pruned)] (est=60)
          PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p . (pruned)] (est=15)
        PatternScan [graph ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (pruned)] (est=12)
      PatternScan [graph ?p <http://lubm.example.org/univ-bench.owl#name> ?pn . (pruned)] (est=127)
    PatternScan [graph ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u . (pruned)] (est=3)
)PLAN"},
          {"GraphX_SM|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  PartitionedHashJoin [aggregateMessages forward (re-anchor ?x)] (est=?)
    PartitionedHashJoin [aggregateMessages forward (re-anchor ?x)] (est=?)
      PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (seed)] (est=12)
      PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=127)
    PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e .] (est=12)
)PLAN"},
          {"GraphX_SM|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  PartitionedHashJoin [aggregateMessages forward] (est=?)
    PartitionedHashJoin [aggregateMessages forward] (est=?)
      PatternScan [graph ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 . (seed)] (est=15)
      PatternScan [graph ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=12)
    PatternScan [graph ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=3)
)PLAN"},
          {"GraphX_SM|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  PartitionedHashJoin [aggregateMessages forward (re-anchor ?d)] (est=?)
    PartitionedHashJoin [aggregateMessages forward (re-anchor ?p)] (est=?)
      PartitionedHashJoin [aggregateMessages forward] (est=?)
        PartitionedHashJoin [aggregateMessages forward (re-anchor ?x)] (est=?)
          PartitionedHashJoin [aggregateMessages forward] (est=?)
            PatternScan [graph ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> . (seed)] (est=127)
            PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=60)
          PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=15)
        PatternScan [graph ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=12)
      PatternScan [graph ?p <http://lubm.example.org/univ-bench.owl#name> ?pn .] (est=127)
    PatternScan [graph ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=3)
)PLAN"},
          {"Sparkql|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  Project [flatten ?d tables] (est=?)
    PartitionedHashJoin [vertex-message ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=12)
      LocalStarMatch [subject-star ?d (0 local patterns)] (est=?)
      LocalStarMatch [subject-star ?x (2 local patterns)] (est=?)
)PLAN"},
          {"Sparkql|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  Project [flatten ?v1 tables] (est=?)
    PartitionedHashJoin [vertex-message ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 .] (est=12)
      PartitionedHashJoin [vertex-message ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 .] (est=15)
        LocalStarMatch [subject-star ?v1 (0 local patterns)] (est=?)
        LocalStarMatch [subject-star ?v0 (0 local patterns)] (est=?)
      PartitionedHashJoin [vertex-message ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 .] (est=3)
        LocalStarMatch [subject-star ?v2 (0 local patterns)] (est=?)
        LocalStarMatch [subject-star ?v3 (0 local patterns)] (est=?)
)PLAN"},
          {"Sparkql|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  Project [flatten ?d tables] (est=?)
    PartitionedHashJoin [vertex-message ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u .] (est=3)
      PartitionedHashJoin [vertex-message ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=12)
        LocalStarMatch [subject-star ?d (0 local patterns)] (est=?)
        PartitionedHashJoin [vertex-message ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p .] (est=15)
          LocalStarMatch [subject-star ?p (1 local patterns)] (est=?)
          PartitionedHashJoin [vertex-message ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm .] (est=60)
            LocalStarMatch [subject-star ?x (1 local patterns)] (est=?)
            LocalStarMatch [subject-star ?dm (0 local patterns)] (est=?)
      LocalStarMatch [subject-star ?u (0 local patterns)] (est=?)
)PLAN"},
          {"GraphFrames|star",
           R"PLAN(Project [?x ?d ?e ?n] (est=?)
  PartitionedHashJoin [on m0] (est=?)
    PartitionedHashJoin [on m0] (est=?)
      PatternScan [graph (m0)-[e0]->(m1) ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (pruned)] (est=12)
      PatternScan [graph (m0)-[e1]->(m2) ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e . (pruned)] (est=12)
    PatternScan [graph (m0)-[e2]->(m3) ?x <http://lubm.example.org/univ-bench.owl#name> ?n . (pruned)] (est=127)
)PLAN"},
          {"GraphFrames|chain",
           R"PLAN(Project [?v2 ?v3 ?v1 ?v0] (est=?)
  PartitionedHashJoin [on m2] (est=?)
    PartitionedHashJoin [on m0] (est=?)
      PatternScan [graph (m0)-[e0]->(m1) ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 . (pruned)] (est=3)
      PatternScan [graph (m2)-[e1]->(m0) ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 . (pruned)] (est=12)
    PatternScan [graph (m3)-[e2]->(m2) ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 . (pruned)] (est=15)
)PLAN"},
          {"GraphFrames|snowflake",
           R"PLAN(Project [?d ?u ?p ?x ?dm ?pn] (est=?)
  PartitionedHashJoin [on m2] (est=?)
    PartitionedHashJoin [on m3] (est=?)
      PartitionedHashJoin [on m3] (est=?)
        PartitionedHashJoin [on m2] (est=?)
          PartitionedHashJoin [on m0] (est=?)
            PatternScan [graph (m0)-[e0]->(m1) ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u . (pruned)] (est=3)
            PatternScan [graph (m2)-[e1]->(m0) ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (pruned)] (est=12)
          PatternScan [graph (m3)-[e2]->(m2) ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p . (pruned)] (est=15)
        PatternScan [graph (m3)-[e3]->(m4) ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm . (pruned)] (est=60)
      PatternScan [graph (m3)-[e4]->(m5) ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#GraduateStudent> . (pruned)] (est=127)
    PatternScan [graph (m2)-[e5]->(m6) ?p <http://lubm.example.org/univ-bench.owl#name> ?pn . (pruned)] (est=127)
)PLAN"},
          {"SparkRDF|star",
           R"PLAN(Project [?x ?d ?n ?e] (est=?)
  Project [collect matched rows] (est=?)
    CartesianProduct [merge-rows (re-partition on ?n)] (est=?)
      CartesianProduct [merge-rows (re-partition on ?d)] (est=?)
        PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#emailAddress> ?e . (relation file, partition on ?e)] (est=12)
        PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (relation file, partition on ?d)] (est=12)
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#name> ?n . (relation file, partition on ?n)] (est=127)
)PLAN"},
          {"SparkRDF|chain",
           R"PLAN(Project [?v0 ?v1 ?v2 ?v3] (est=?)
  Project [collect matched rows] (est=?)
    CartesianProduct [merge-rows (re-partition on ?v0)] (est=?)
      PartitionedHashJoin [on ?v2 (re-partition)] (est=?)
        PatternScan [vp ?v2 <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?v3 . (relation file, partition on ?v3)] (est=3)
        PatternScan [vp ?v1 <http://lubm.example.org/univ-bench.owl#worksFor> ?v2 . (relation file, partition on ?v2)] (est=12)
      PatternScan [vp ?v0 <http://lubm.example.org/univ-bench.owl#advisor> ?v1 . (relation file, partition on ?v0)] (est=15)
)PLAN"},
          {"SparkRDF|snowflake",
           R"PLAN(Project [?x ?dm ?p ?d ?pn ?u] (est=?)
  Filter [?x is-a <http://lubm.example.org/univ-bench.owl#GraduateStudent> (class index)] (est=?)
    Project [collect matched rows] (est=?)
      CartesianProduct [merge-rows (re-partition on ?pn)] (est=?)
        PartitionedHashJoin [on ?x (re-partition)] (est=?)
          CartesianProduct [merge-rows (re-partition on ?dm)] (est=?)
            PartitionedHashJoin [on ?d (re-partition)] (est=?)
              PatternScan [vp ?d <http://lubm.example.org/univ-bench.owl#subOrganizationOf> ?u . (relation file, partition on ?u)] (est=3)
              PatternScan [vp ?p <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (relation file, partition on ?d)] (est=12)
            PatternScan [class-index ?x <http://lubm.example.org/univ-bench.owl#memberOf> ?dm . (cr file, partition on ?dm)] (est=15)
          PatternScan [class-index ?x <http://lubm.example.org/univ-bench.owl#advisor> ?p . (cr file, partition on ?x)] (est=15)
        PatternScan [vp ?p <http://lubm.example.org/univ-bench.owl#name> ?pn . (relation file, partition on ?pn)] (est=127)
)PLAN"},
          // GOLDEN_EXPLAIN_END
      };
  return *goldens;
}

TEST(PlanExplainTest, MatchesGoldenPlans) {
  bool print = std::getenv("RDFSPARK_PRINT_EXPLAIN") != nullptr;
  const auto& goldens = GoldenExplains();
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& q : ShapeQueries()) {
      auto explained = Explain(*engine, q.text);
      ASSERT_TRUE(explained.ok())
          << factory.name << "/" << q.label << ": "
          << explained.status().ToString();
      std::string key = factory.name + "|" + q.label;
      if (print) {
        std::printf("          {\"%s\",\n           R\"PLAN(%s)PLAN\"},\n",
                    key.c_str(), explained->c_str());
        continue;
      }
      auto it = goldens.find(key);
      ASSERT_TRUE(it != goldens.end()) << "no golden for " << key;
      EXPECT_EQ(it->second, *explained) << key;
    }
  }
  if (!print) {
    EXPECT_EQ(goldens.size(),
              AllEngineVariantFactories().size() * ShapeQueries().size());
  }
}

/// Group queries on the BGP+ variants: EXPLAIN of PlanQuery's one plan,
/// whose driver-side Join/Union, LeftJoin and Filter nodes sit above the
/// engine's BGP plans.
std::vector<ShapeQuery> GroupQueries() {
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
      ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  return {
      {"complex", rdf::LubmShapeQuery(rdf::QueryShape::kComplex)},
      {"optional_union",
       prologue +
           "SELECT ?x ?n ?u WHERE { ?x ub:name ?n . "
           "{ ?x rdf:type ub:FullProfessor } UNION "
           "{ ?x rdf:type ub:AssociateProfessor } "
           "OPTIONAL { ?x ub:doctoralDegreeFrom ?u } }"},
  };
}

const std::map<std::string, std::string>& GoldenGroupExplains() {
  static const std::map<std::string, std::string>* goldens =
      new std::map<std::string, std::string>{
          // GOLDEN_GROUP_EXPLAIN_BEGIN
          {"HAQWA|complex",
           R"PLAN(Filter [driver (?age > "20"^^<http://www.w3.org/2001/XMLSchema#integer>)] (est=?)
  Project [?x ?n ?age ?c ?t ?d] (est=?)
    PartitionedHashJoin [on ?c (re-key)] (est=?)
      LocalStarMatch [subject-star ?t (2 patterns)] (est=12)
      LocalStarMatch [subject-star ?x (4 patterns)] (est=60)
)PLAN"},
          {"HAQWA|optional_union",
           R"PLAN(LeftJoin [driver] (est=?)
  Join [driver] (est=?)
    Project [?x ?n] (est=?)
      LocalStarMatch [subject-star ?x (1 pattern)] (est=127)
    Union [driver] (est=?)
      Project [?x] (est=?)
        LocalStarMatch [subject-star ?x (1 pattern)] (est=127)
      Project [?x] (est=?)
        LocalStarMatch [subject-star ?x (1 pattern)] (est=127)
  Project [?x ?u] (est=?)
    LocalStarMatch [subject-star ?x (1 pattern)] (est=12)
)PLAN"},
          {"SPARQLGX|complex",
           R"PLAN(Filter [driver (?age > "20"^^<http://www.w3.org/2001/XMLSchema#integer>)] (est=?)
  Project [?x ?n ?age ?c ?t ?d] (est=?)
    PartitionedHashJoin [on ?x] (est=?)
      PartitionedHashJoin [on ?t] (est=?)
        PartitionedHashJoin [on ?c] (est=?)
          PartitionedHashJoin [on ?x] (est=?)
            PartitionedHashJoin [on ?x] (est=?)
              PatternScan [vp ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#UndergraduateStudent> .] (est=2)
              PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#age> ?age .] (est=61)
            PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#takesCourse> ?c .] (est=105)
          PatternScan [vp ?t <http://lubm.example.org/univ-bench.owl#teacherOf> ?c .] (est=18)
        PatternScan [vp ?t <http://lubm.example.org/univ-bench.owl#worksFor> ?d .] (est=13)
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128)
)PLAN"},
          {"SPARQLGX|optional_union",
           R"PLAN(LeftJoin [driver] (est=?)
  Join [driver] (est=?)
    Project [?x ?n] (est=?)
      PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#name> ?n .] (est=128)
    Union [driver] (est=?)
      Project [?x] (est=?)
        PatternScan [vp ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#FullProfessor> .] (est=2)
      Project [?x] (est=?)
        PatternScan [vp ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#AssociateProfessor> .] (est=2)
  Project [?x ?u] (est=?)
    PatternScan [vp ?x <http://lubm.example.org/univ-bench.owl#doctoralDegreeFrom> ?u .] (est=13)
)PLAN"},
          {"S2RDF|complex",
           R"PLAN(Filter [driver (?age > "20"^^<http://www.w3.org/2001/XMLSchema#integer>)] (est=?)
  Project [?x ?t ?d ?c ?age ?n] (est=?)
    PartitionedHashJoin [on t5.s = t0.s] (est=?)
      PartitionedHashJoin [on t4.s = t0.s AND t4.o = t2.o] (est=?)
        PartitionedHashJoin [on t3.s = t0.s] (est=?)
          PartitionedHashJoin [on t2.s = t1.s] (est=?)
            CartesianProduct [1 = 1] (est=?)
              PatternScan [vp vp_p1 t0] (est=127)
              PatternScan [vp vp_p23 t1] (est=12)
            PatternScan [vp vp_p29 t2] (est=17)
          PatternScan [vp vp_p62 t3] (est=60)
        PatternScan [vp vp_p66 t4] (est=104)
      PatternScan [vp vp_p3 t5] (est=127)
)PLAN"},
          {"S2RDF|optional_union",
           R"PLAN(LeftJoin [driver] (est=?)
  Join [driver] (est=?)
    Project [?x ?n] (est=?)
      PatternScan [vp vp_p3 t0] (est=127)
    Union [driver] (est=?)
      Project [?x] (est=?)
        PatternScan [vp vp_p1 t0] (est=127)
      Project [?x] (est=?)
        PatternScan [vp vp_p1 t0] (est=127)
  Project [?x ?u] (est=?)
    PatternScan [vp vp_p27 t0] (est=12)
)PLAN"},
          {"S2X|complex",
           R"PLAN(Filter [driver (?age > "20"^^<http://www.w3.org/2001/XMLSchema#integer>)] (est=?)
  Project [?x ?n ?age ?c ?t ?d] (est=?)
    PartitionedHashJoin [on ?t] (est=?)
      PartitionedHashJoin [on ?c] (est=?)
        PartitionedHashJoin [on ?x] (est=?)
          PartitionedHashJoin [on ?x] (est=?)
            PartitionedHashJoin [on ?x] (est=?)
              PatternScan [graph ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#UndergraduateStudent> . (pruned)] (est=127)
              PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#name> ?n . (pruned)] (est=127)
            PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#age> ?age . (pruned)] (est=60)
          PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#takesCourse> ?c . (pruned)] (est=104)
        PatternScan [graph ?t <http://lubm.example.org/univ-bench.owl#teacherOf> ?c . (pruned)] (est=17)
      PatternScan [graph ?t <http://lubm.example.org/univ-bench.owl#worksFor> ?d . (pruned)] (est=12)
)PLAN"},
          {"S2X|optional_union",
           R"PLAN(LeftJoin [driver] (est=?)
  Join [driver] (est=?)
    Project [?x ?n] (est=?)
      PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#name> ?n . (pruned)] (est=127)
    Union [driver] (est=?)
      Project [?x] (est=?)
        PatternScan [graph ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#FullProfessor> . (pruned)] (est=127)
      Project [?x] (est=?)
        PatternScan [graph ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lubm.example.org/univ-bench.owl#AssociateProfessor> . (pruned)] (est=127)
  Project [?x ?u] (est=?)
    PatternScan [graph ?x <http://lubm.example.org/univ-bench.owl#doctoralDegreeFrom> ?u . (pruned)] (est=12)
)PLAN"},
          // GOLDEN_GROUP_EXPLAIN_END
      };
  return *goldens;
}

TEST(PlanExplainTest, MatchesGoldenGroupPlans) {
  bool print = std::getenv("RDFSPARK_PRINT_EXPLAIN") != nullptr;
  const auto& goldens = GoldenGroupExplains();
  const std::vector<std::string> kVariants = {"HAQWA", "SPARQLGX", "S2RDF",
                                              "S2X"};
  for (const auto& factory : AllEngineVariantFactories()) {
    if (std::find(kVariants.begin(), kVariants.end(), factory.name) ==
        kVariants.end()) {
      continue;
    }
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& q : GroupQueries()) {
      std::string key = factory.name + "|" + q.label;
      auto query = sparql::ParseQuery(q.text);
      ASSERT_TRUE(query.ok()) << key;
      auto root = engine->PlanQuery(*query);
      ASSERT_TRUE(root.ok()) << key << ": " << root.status().ToString();
      std::string explained = plan::Explain(**root);
      if (print) {
        std::printf("          {\"%s\",\n           R\"PLAN(%s)PLAN\"},\n",
                    key.c_str(), explained.c_str());
        continue;
      }
      auto it = goldens.find(key);
      ASSERT_TRUE(it != goldens.end()) << "no golden for " << key;
      EXPECT_EQ(it->second, explained) << key;
    }
  }
  if (!print) {
    EXPECT_EQ(goldens.size(), kVariants.size() * GroupQueries().size());
  }
}

/// Planning must be pure: EXPLAIN charges no metrics, and the plan printed
/// before and after execution is identical.
TEST(PlanExplainTest, ExplainIsPureAndDeterministic) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    const std::string query = ShapeQueries()[0].text;
    auto before = sc.metrics();
    auto first = Explain(*engine, query);
    ASSERT_TRUE(first.ok()) << factory.name;
    auto delta = sc.metrics() - before;
    EXPECT_EQ(delta.shuffle_records, 0u) << factory.name;
    EXPECT_EQ(delta.tasks, 0u) << factory.name;
    ASSERT_TRUE(engine->ExecuteText(query).ok()) << factory.name;
    auto second = Explain(*engine, query);
    ASSERT_TRUE(second.ok()) << factory.name;
    EXPECT_EQ(*first, *second) << factory.name;
  }
}

/// The naive SparkSQL translation has no join planning: every pattern is
/// stitched on with a cross join + filter.
TEST(PlanExplainTest, SqlNaiveFallsBackToCartesianProducts) {
  SparkContext sc(SmallCluster());
  HybridEngine::Options opts;
  opts.mode = HybridMode::kSparkSqlNaive;
  HybridEngine engine(&sc, opts);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto explained =
      Explain(engine, rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3));
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("CartesianProduct [cross-join + filter]"),
            std::string::npos)
      << *explained;
  EXPECT_EQ(explained->find("PartitionedHashJoin"), std::string::npos)
      << *explained;
}

/// The hybrid planner predicts broadcast vs partitioned joins from dataset
/// statistics against the cluster's broadcast threshold.
TEST(PlanExplainTest, HybridJoinStrategyFollowsBroadcastThreshold) {
  const std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3);
  {
    ClusterConfig cfg = SmallCluster();
    cfg.broadcast_threshold_bytes = 64ull << 20;  // everything fits
    SparkContext sc(cfg);
    HybridEngine::Options opts;
    opts.mode = HybridMode::kHybrid;
    HybridEngine engine(&sc, opts);
    ASSERT_TRUE(engine.Load(Dataset()).ok());
    auto explained = Explain(engine, query);
    ASSERT_TRUE(explained.ok());
    EXPECT_NE(explained->find("BroadcastJoin"), std::string::npos)
        << *explained;
    EXPECT_EQ(explained->find("PartitionedHashJoin"), std::string::npos)
        << *explained;
  }
  {
    ClusterConfig cfg = SmallCluster();
    cfg.broadcast_threshold_bytes = 1;  // nothing fits
    SparkContext sc(cfg);
    HybridEngine::Options opts;
    opts.mode = HybridMode::kHybrid;
    HybridEngine engine(&sc, opts);
    ASSERT_TRUE(engine.Load(Dataset()).ok());
    auto explained = Explain(engine, query);
    ASSERT_TRUE(explained.ok());
    EXPECT_NE(explained->find("PartitionedHashJoin"), std::string::npos)
        << *explained;
    EXPECT_EQ(explained->find("BroadcastJoin"), std::string::npos)
        << *explained;
  }
}

}  // namespace
}  // namespace rdfspark::systems
