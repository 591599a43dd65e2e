#include "systems/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "rdf/generator.h"
#include "rdf/store.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "systems/graphframes_engine.h"
#include "systems/graphx_sm.h"
#include "systems/haqwa.h"
#include "systems/hybrid.h"
#include "systems/plan/planner_utils.h"
#include "systems/s2rdf.h"
#include "systems/s2x.h"
#include "systems/sparkql.h"
#include "systems/sparkrdf.h"
#include "systems/sparqlgx.h"

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

/// Shared dataset: one small LUBM university, deduplicated.
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

/// Queries every engine must answer exactly like the reference evaluator.
/// BGP-only engines skip entries with `needs_bgp_plus`.
struct TestQuery {
  const char* label;
  std::string text;
  bool needs_bgp_plus = false;
};

std::vector<TestQuery> TestQueries() {
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
      ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  std::vector<TestQuery> qs;
  qs.push_back({"star3", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3)});
  qs.push_back({"star5", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 5)});
  qs.push_back({"linear2", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 2)});
  qs.push_back({"linear3", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)});
  qs.push_back(
      {"snowflake", rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake)});
  qs.push_back({"complex_filter",
                rdf::LubmShapeQuery(rdf::QueryShape::kComplex), true});
  qs.push_back({"single_pattern",
                prologue + "SELECT ?x ?d WHERE { ?x ub:worksFor ?d }"});
  qs.push_back({"constant_subject",
                prologue +
                    "SELECT ?p ?o WHERE { "
                    "<" + std::string(rdf::kUbPrefix) +
                    "Dept0.Univ0> ?p ?o }"});
  qs.push_back({"constant_object",
                prologue +
                    "SELECT ?x WHERE { ?x rdf:type ub:FullProfessor }"});
  qs.push_back({"object_object",
                prologue +
                    "SELECT ?s ?t WHERE { ?s ub:takesCourse ?c . "
                    "?t ub:teacherOf ?c }"});
  qs.push_back({"no_answers",
                prologue +
                    "SELECT ?x WHERE { ?x ub:worksFor ?d . "
                    "?d rdf:type ub:FullProfessor }"});
  qs.push_back({"unknown_uri",
                prologue + "SELECT ?x WHERE { ?x ub:noSuchPredicate ?y }"});
  qs.push_back({"optional",
                prologue +
                    "SELECT ?x ?u WHERE { ?x rdf:type ub:GraduateStudent . "
                    "OPTIONAL { ?x ub:undergraduateDegreeFrom ?u } }",
                true});
  qs.push_back({"union",
                prologue +
                    "SELECT ?x WHERE { { ?x rdf:type ub:FullProfessor } "
                    "UNION { ?x rdf:type ub:AssociateProfessor } }",
                true});
  qs.push_back({"distinct_order",
                prologue +
                    "SELECT DISTINCT ?d WHERE { ?x ub:worksFor ?d } "
                    "ORDER BY ?d LIMIT 2",
                true});
  qs.push_back({"ask_yes",
                prologue + "ASK { ?x rdf:type ub:University }"});
  return qs;
}

struct EngineFactory {
  std::string name;
  std::function<std::unique_ptr<BgpEngineBase>(SparkContext*)> make;
};

std::vector<EngineFactory> Factories() {
  std::vector<EngineFactory> out;
  out.push_back({"HAQWA", [](SparkContext* sc) {
                   return std::make_unique<HaqwaEngine>(sc);
                 }});
  out.push_back(
      {"HAQWA_workload", [](SparkContext* sc) {
         HaqwaEngine::Options opts;
         opts.frequent_queries = {
             rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)};
         return std::make_unique<HaqwaEngine>(sc, opts);
       }});
  out.push_back({"SPARQLGX", [](SparkContext* sc) {
                   return std::make_unique<SparqlgxEngine>(sc);
                 }});
  out.push_back({"SPARQLGX_nostats", [](SparkContext* sc) {
                   SparqlgxEngine::Options opts;
                   opts.enable_statistics_reordering = false;
                   return std::make_unique<SparqlgxEngine>(sc, opts);
                 }});
  out.push_back({"S2RDF", [](SparkContext* sc) {
                   return std::make_unique<S2rdfEngine>(sc);
                 }});
  out.push_back({"S2RDF_noextvp", [](SparkContext* sc) {
                   S2rdfEngine::Options opts;
                   opts.enable_extvp = false;
                   return std::make_unique<S2rdfEngine>(sc, opts);
                 }});
  out.push_back({"S2RDF_sf1", [](SparkContext* sc) {
                   S2rdfEngine::Options opts;
                   opts.selectivity_threshold = 1.0;
                   return std::make_unique<S2rdfEngine>(sc, opts);
                 }});
  for (auto mode :
       {HybridMode::kSparkSqlNaive, HybridMode::kRddPartitioned,
        HybridMode::kDataFrameAuto, HybridMode::kHybrid}) {
    std::string name = std::string("Hybrid_") + HybridModeName(mode);
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    out.push_back({name, [mode](SparkContext* sc) {
                     HybridEngine::Options opts;
                     opts.mode = mode;
                     return std::make_unique<HybridEngine>(sc, opts);
                   }});
  }
  out.push_back({"S2X", [](SparkContext* sc) {
                   return std::make_unique<S2xEngine>(sc);
                 }});
  out.push_back({"GraphX_SM", [](SparkContext* sc) {
                   return std::make_unique<GraphxSmEngine>(sc);
                 }});
  out.push_back({"Sparkql", [](SparkContext* sc) {
                   return std::make_unique<SparkqlEngine>(sc);
                 }});
  out.push_back({"GraphFrames", [](SparkContext* sc) {
                   return std::make_unique<GraphFramesEngine>(sc);
                 }});
  out.push_back({"GraphFrames_unopt", [](SparkContext* sc) {
                   GraphFramesEngine::Options opts;
                   opts.enable_frequency_ordering = false;
                   opts.enable_pruning = false;
                   return std::make_unique<GraphFramesEngine>(sc, opts);
                 }});
  out.push_back({"SparkRDF", [](SparkContext* sc) {
                   return std::make_unique<SparkRdfEngine>(sc);
                 }});
  out.push_back({"SparkRDF_noclass", [](SparkContext* sc) {
                   SparkRdfEngine::Options opts;
                   opts.enable_class_indexes = false;
                   return std::make_unique<SparkRdfEngine>(sc, opts);
                 }});
  return out;
}

class EngineConformanceTest
    : public ::testing::TestWithParam<EngineFactory> {};

TEST_P(EngineConformanceTest, MatchesReferenceEvaluatorOnAllQueries) {
  const rdf::TripleStore& store = Dataset();
  SparkContext sc(SmallCluster());
  auto engine = GetParam().make(&sc);
  auto load = engine->Load(store);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->input_triples, store.size());

  sparql::ReferenceEvaluator reference(&store);
  for (const auto& tq : TestQueries()) {
    auto query = sparql::ParseQuery(tq.text);
    ASSERT_TRUE(query.ok()) << tq.label << ": " << query.status().ToString();
    // BGP-only engines reject pattern-level extras (FILTER/OPTIONAL/UNION);
    // solution modifiers are evaluated driver-side by every engine.
    bool bgp_plus_needed = !query->where.IsPlainBgp();
    if (bgp_plus_needed &&
        engine->traits().fragment == SparqlFragment::kBgp) {
      auto r = engine->Execute(*query);
      EXPECT_FALSE(r.ok()) << tq.label << ": BGP engine must reject BGP+";
      continue;
    }
    auto expected = reference.Evaluate(*query);
    ASSERT_TRUE(expected.ok()) << tq.label;
    auto got = engine->Execute(*query);
    ASSERT_TRUE(got.ok()) << GetParam().name << " / " << tq.label << ": "
                          << got.status().ToString();
    if (!query->order_by.empty() || query->limit >= 0) {
      // Ordered/limited results: compare row counts only (ties make exact
      // row sets non-deterministic across engines).
      EXPECT_EQ(got->num_rows(), expected->num_rows())
          << GetParam().name << " / " << tq.label;
    } else {
      EXPECT_EQ(got->Decode(store.dictionary()),
                expected->Decode(store.dictionary()))
          << GetParam().name << " / " << tq.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineConformanceTest, ::testing::ValuesIn(Factories()),
    [](const ::testing::TestParamInfo<EngineFactory>& info) {
      return info.param.name;
    });

/// Execute is PlanQuery + ExecutePlanned: every query the fragment allows,
/// FILTER/OPTIONAL/UNION included, has one plan, and that one plan runs
/// twice (once for S2X, whose plans are single-use) to the reference
/// answer. BGP-only variants refuse group queries at planning, with the
/// message Execute gives.
TEST(OnePlanConformanceTest, PlanOnceExecuteTwiceMatchesReference) {
  const rdf::TripleStore& store = Dataset();
  sparql::ReferenceEvaluator reference(&store);
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
    for (const auto& tq : TestQueries()) {
      SCOPED_TRACE(factory.name + " / " + tq.label);
      auto query = sparql::ParseQuery(tq.text);
      ASSERT_TRUE(query.ok());
      auto planned = engine->PlanQuery(*query);
      if (!query->where.IsPlainBgp() &&
          engine->traits().fragment == SparqlFragment::kBgp) {
        ASSERT_FALSE(planned.ok());
        EXPECT_EQ(planned.status().code(), StatusCode::kUnsupported);
        EXPECT_EQ(planned.status().message(),
                  engine->traits().name +
                      " supports the BGP fragment only (no FILTER/OPTIONAL/"
                      "UNION/aggregates)");
        EXPECT_EQ(engine->Execute(*query).status().ToString(),
                  planned.status().ToString());
        continue;
      }
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      auto expected = reference.Evaluate(*query);
      ASSERT_TRUE(expected.ok());
      const int runs = engine->ReusablePlans() ? 2 : 1;
      for (int run = 0; run < runs; ++run) {
        auto got = engine->ExecutePlanned(*query, **planned);
        ASSERT_TRUE(got.ok()) << "run " << run << ": "
                              << got.status().ToString();
        if (!query->order_by.empty() || query->limit >= 0) {
          EXPECT_EQ(got->num_rows(), expected->num_rows()) << "run " << run;
        } else {
          EXPECT_EQ(got->Decode(store.dictionary()),
                    expected->Decode(store.dictionary()))
              << "run " << run;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Behaviour-preservation guard for the physical-plan layer: every engine's
// results and query-time metrics must match values captured before the
// EvaluateBgp -> PlanBgp/PlanExecutor refactor. Regenerate the table with
//   RDFSPARK_PRINT_GOLDEN=1 ./engines_test
//     --gtest_filter='*MatchesPreRefactorGoldens*'   (one line)
// ---------------------------------------------------------------------------

/// One captured execution: order-insensitive result hash plus the metric
/// counters most sensitive to join strategy and ordering changes.
struct GoldenRun {
  const char* engine;
  const char* query;
  uint64_t result_hash;
  uint64_t shuffle_records;
  uint64_t join_comparisons;
  uint64_t broadcast_bytes;
};

/// FNV-1a over the decoded rows in sorted canonical form.
uint64_t HashDecoded(const sparql::BindingTable& table,
                     const rdf::Dictionary& dict) {
  std::vector<std::string> rows;
  for (const auto& decoded : table.Decode(dict)) {
    std::string row;
    for (const auto& [var, term] : decoded) {
      row += var;
      row += '=';
      row += term;
      row += ';';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const auto& row : rows) {
    for (char c : row) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }
  return h;
}

const std::vector<GoldenRun>& GoldenRuns() {
  static const std::vector<GoldenRun>* runs = new std::vector<GoldenRun>{
      // RDFSPARK_GOLDEN_TABLE_BEGIN
      {"HAQWA", "star3", 0x6e4f46cd4067675bull, 0ull, 0ull, 0ull},
      {"HAQWA", "star5", 0x6ff92254b5451753ull, 0ull, 0ull, 0ull},
      {"HAQWA", "linear3", 0x59711d0770b5f4d2ull, 33ull, 29ull, 0ull},
      {"HAQWA", "snowflake", 0x4dcb0d81391cebb0ull, 33ull, 29ull, 0ull},
      {"HAQWA", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"HAQWA", "object_object", 0x2f8d36d8fb7af6d4ull, 60ull, 115ull, 0ull},
      {"HAQWA_workload", "star3", 0x6e4f46cd4067675bull, 0ull, 0ull, 0ull},
      {"HAQWA_workload", "star5", 0x6ff92254b5451753ull, 0ull, 0ull, 0ull},
      {"HAQWA_workload", "linear3", 0x59711d0770b5f4d2ull, 22ull, 29ull, 0ull},
      {"HAQWA_workload", "snowflake", 0x4dcb0d81391cebb0ull, 33ull, 29ull, 0ull},
      {"HAQWA_workload", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"HAQWA_workload", "object_object", 0x2f8d36d8fb7af6d4ull, 60ull, 115ull, 0ull},
      {"SPARQLGX", "star3", 0x6e4f46cd4067675bull, 8ull, 24ull, 0ull},
      {"SPARQLGX", "star5", 0x6ff92254b5451753ull, 12ull, 58ull, 0ull},
      {"SPARQLGX", "linear3", 0x59711d0770b5f4d2ull, 4ull, 29ull, 0ull},
      {"SPARQLGX", "snowflake", 0x4dcb0d81391cebb0ull, 27ull, 75ull, 0ull},
      {"SPARQLGX", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"SPARQLGX", "object_object", 0x2f8d36d8fb7af6d4ull, 6ull, 115ull, 0ull},
      {"SPARQLGX_nostats", "star3", 0x6e4f46cd4067675bull, 10ull, 24ull, 0ull},
      {"SPARQLGX_nostats", "star5", 0x6ff92254b5451753ull, 18ull, 53ull, 0ull},
      {"SPARQLGX_nostats", "linear3", 0x59711d0770b5f4d2ull, 4ull, 30ull, 0ull},
      {"SPARQLGX_nostats", "snowflake", 0x4dcb0d81391cebb0ull, 25ull, 75ull, 0ull},
      {"SPARQLGX_nostats", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"SPARQLGX_nostats", "object_object", 0x2f8d36d8fb7af6d4ull, 6ull, 142ull, 0ull},
      {"S2RDF", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 1296ull},
      {"S2RDF", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 2862ull},
      {"S2RDF", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 1458ull},
      {"S2RDF", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 2970ull},
      {"S2RDF", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2RDF", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"S2RDF_noextvp", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 7506ull},
      {"S2RDF_noextvp", "star5", 0x6ff92254b5451753ull, 0ull, 58ull, 9072ull},
      {"S2RDF_noextvp", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 1458ull},
      {"S2RDF_noextvp", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 74ull, 12366ull},
      {"S2RDF_noextvp", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2RDF_noextvp", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"S2RDF_sf1", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 1296ull},
      {"S2RDF_sf1", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 2862ull},
      {"S2RDF_sf1", "linear3", 0x59711d0770b5f4d2ull, 0ull, 25ull, 1350ull},
      {"S2RDF_sf1", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 2862ull},
      {"S2RDF_sf1", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2RDF_sf1", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"Hybrid_SparkSQL_naive", "star3", 0x6e4f46cd4067675bull, 0ull, 1668ull, 0ull},
      {"Hybrid_SparkSQL_naive", "star5", 0x6ff92254b5451753ull, 0ull, 2016ull, 0ull},
      {"Hybrid_SparkSQL_naive", "linear3", 0x59711d0770b5f4d2ull, 0ull, 225ull, 0ull},
      {"Hybrid_SparkSQL_naive", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 3255ull, 0ull},
      {"Hybrid_SparkSQL_naive", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_SparkSQL_naive", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 1768ull, 0ull},
      {"Hybrid_RDD_partitioned", "star3", 0x6e4f46cd4067675bull, 26ull, 24ull, 0ull},
      {"Hybrid_RDD_partitioned", "star5", 0x6ff92254b5451753ull, 50ull, 53ull, 0ull},
      {"Hybrid_RDD_partitioned", "linear3", 0x59711d0770b5f4d2ull, 30ull, 30ull, 0ull},
      {"Hybrid_RDD_partitioned", "snowflake", 0x4dcb0d81391cebb0ull, 73ull, 75ull, 0ull},
      {"Hybrid_RDD_partitioned", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_RDD_partitioned", "object_object", 0x2f8d36d8fb7af6d4ull, 60ull, 142ull, 0ull},
      {"Hybrid_DataFrame_broadcast", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 7506ull},
      {"Hybrid_DataFrame_broadcast", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 9072ull},
      {"Hybrid_DataFrame_broadcast", "linear3", 0x59711d0770b5f4d2ull, 0ull, 30ull, 810ull},
      {"Hybrid_DataFrame_broadcast", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 11718ull},
      {"Hybrid_DataFrame_broadcast", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_DataFrame_broadcast", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 142ull, 918ull},
      {"Hybrid_Hybrid", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 7506ull},
      {"Hybrid_Hybrid", "star5", 0x6ff92254b5451753ull, 0ull, 58ull, 9072ull},
      {"Hybrid_Hybrid", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 1458ull},
      {"Hybrid_Hybrid", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 11718ull},
      {"Hybrid_Hybrid", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Hybrid_Hybrid", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 5616ull},
      {"S2X", "star3", 0x6e4f46cd4067675bull, 42ull, 24ull, 0ull},
      {"S2X", "star5", 0x6ff92254b5451753ull, 80ull, 53ull, 0ull},
      {"S2X", "linear3", 0x59711d0770b5f4d2ull, 36ull, 30ull, 0ull},
      {"S2X", "snowflake", 0x4dcb0d81391cebb0ull, 103ull, 75ull, 0ull},
      {"S2X", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"S2X", "object_object", 0x2f8d36d8fb7af6d4ull, 41ull, 115ull, 0ull},
      {"GraphX_SM", "star3", 0x6e4f46cd4067675bull, 3639ull, 2806ull, 0ull},
      {"GraphX_SM", "star5", 0x6ff92254b5451753ull, 7270ull, 5612ull, 0ull},
      {"GraphX_SM", "linear3", 0x59711d0770b5f4d2ull, 3610ull, 2806ull, 0ull},
      {"GraphX_SM", "snowflake", 0x4dcb0d81391cebb0ull, 9056ull, 7015ull, 0ull},
      {"GraphX_SM", "constant_object", 0x29fef2979fd98f3cull, 6ull, 0ull, 0ull},
      {"GraphX_SM", "object_object", 0x2f8d36d8fb7af6d4ull, 1844ull, 1403ull, 0ull},
      {"Sparkql", "star3", 0x6e4f46cd4067675bull, 1117ull, 828ull, 0ull},
      {"Sparkql", "star5", 0x6ff92254b5451753ull, 3357ull, 2109ull, 0ull},
      {"Sparkql", "linear3", 0x59711d0770b5f4d2ull, 3468ull, 2357ull, 0ull},
      {"Sparkql", "snowflake", 0x4dcb0d81391cebb0ull, 4489ull, 3046ull, 0ull},
      {"Sparkql", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"Sparkql", "object_object", 0x2f8d36d8fb7af6d4ull, 2368ull, 1534ull, 0ull},
      {"GraphFrames", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 11259ull},
      {"GraphFrames", "star5", 0x6ff92254b5451753ull, 0ull, 58ull, 13608ull},
      {"GraphFrames", "linear3", 0x59711d0770b5f4d2ull, 0ull, 29ull, 2187ull},
      {"GraphFrames", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 74ull, 27621ull},
      {"GraphFrames", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"GraphFrames", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 115ull, 8424ull},
      {"GraphFrames_unopt", "star3", 0x6e4f46cd4067675bull, 0ull, 24ull, 11259ull},
      {"GraphFrames_unopt", "star5", 0x6ff92254b5451753ull, 0ull, 53ull, 13608ull},
      {"GraphFrames_unopt", "linear3", 0x59711d0770b5f4d2ull, 0ull, 30ull, 1215ull},
      {"GraphFrames_unopt", "snowflake", 0x4dcb0d81391cebb0ull, 0ull, 75ull, 17577ull},
      {"GraphFrames_unopt", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"GraphFrames_unopt", "object_object", 0x2f8d36d8fb7af6d4ull, 0ull, 142ull, 1377ull},
      {"SparkRDF", "star3", 0x6e4f46cd4067675bull, 99ull, 1796ull, 0ull},
      {"SparkRDF", "star5", 0x6ff92254b5451753ull, 142ull, 2907ull, 0ull},
      {"SparkRDF", "linear3", 0x59711d0770b5f4d2ull, 39ull, 256ull, 0ull},
      {"SparkRDF", "snowflake", 0x4dcb0d81391cebb0ull, 125ull, 2405ull, 0ull},
      {"SparkRDF", "constant_object", 0x29fef2979fd98f3cull, 0ull, 0ull, 0ull},
      {"SparkRDF", "object_object", 0x2f8d36d8fb7af6d4ull, 100ull, 1832ull, 0ull},
      {"SparkRDF_noclass", "star3", 0x6e4f46cd4067675bull, 99ull, 1796ull, 0ull},
      {"SparkRDF_noclass", "star5", 0x6ff92254b5451753ull, 142ull, 2907ull, 0ull},
      {"SparkRDF_noclass", "linear3", 0x59711d0770b5f4d2ull, 39ull, 256ull, 0ull},
      {"SparkRDF_noclass", "snowflake", 0x4dcb0d81391cebb0ull, 145ull, 93335ull, 0ull},
      {"SparkRDF_noclass", "constant_object", 0x29fef2979fd98f3cull, 6ull, 0ull, 0ull},
      {"SparkRDF_noclass", "object_object", 0x2f8d36d8fb7af6d4ull, 100ull, 1832ull, 0ull},
      // RDFSPARK_GOLDEN_TABLE_END
  };
  return *runs;
}

TEST(PlanRefactorEquivalenceTest, MatchesPreRefactorGoldens) {
  const std::vector<const char*> kLabels = {
      "star3",           "star5",         "linear3",
      "snowflake",       "constant_object", "object_object"};
  const rdf::TripleStore& store = Dataset();
  const bool print = std::getenv("RDFSPARK_PRINT_GOLDEN") != nullptr;
  if (!print && GoldenRuns().empty()) {
    GTEST_SKIP() << "golden table not captured yet";
  }

  std::vector<TestQuery> queries = TestQueries();
  for (const auto& factory : Factories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
    for (const char* label : kLabels) {
      auto it = std::find_if(
          queries.begin(), queries.end(),
          [label](const TestQuery& q) { return std::string(q.label) == label; });
      ASSERT_NE(it, queries.end()) << label;
      auto query = sparql::ParseQuery(it->text);
      ASSERT_TRUE(query.ok()) << label;
      auto before = sc.metrics();
      auto result = engine->Execute(*query);
      auto delta = sc.metrics() - before;
      ASSERT_TRUE(result.ok())
          << factory.name << " / " << label << ": "
          << result.status().ToString();
      uint64_t hash = HashDecoded(*result, store.dictionary());
      if (print) {
        std::printf(
            "      {\"%s\", \"%s\", 0x%016llxull, %lluull, %lluull, "
            "%lluull},\n",
            factory.name.c_str(), label,
            static_cast<unsigned long long>(hash),
            static_cast<unsigned long long>(delta.shuffle_records),
            static_cast<unsigned long long>(delta.join_comparisons),
            static_cast<unsigned long long>(delta.broadcast_bytes));
        continue;
      }
      auto golden = std::find_if(
          GoldenRuns().begin(), GoldenRuns().end(),
          [&](const GoldenRun& g) {
            return factory.name == g.engine && std::string(label) == g.query;
          });
      ASSERT_NE(golden, GoldenRuns().end())
          << "no golden for " << factory.name << " / " << label;
      EXPECT_EQ(hash, golden->result_hash) << factory.name << " / " << label;
      EXPECT_EQ(delta.shuffle_records, golden->shuffle_records)
          << factory.name << " / " << label;
      EXPECT_EQ(delta.join_comparisons, golden->join_comparisons)
          << factory.name << " / " << label;
      EXPECT_EQ(delta.broadcast_bytes, golden->broadcast_bytes)
          << factory.name << " / " << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Row-order guard for the shared planning blocks: every engine variant's raw
// result rows, in order, and the charges of every engines_test query the
// variant can run. Regenerate the table with
//   RDFSPARK_PRINT_GOLDEN=1 ./engines_test
//     --gtest_filter='*MatchesRowOrderGoldens*'   (one line)
// ---------------------------------------------------------------------------

/// One captured execution: order-sensitive hash of the result's variables
/// and raw cells, plus the charges a changed plan or row order would move.
struct RowOrderGolden {
  const char* variant;
  const char* query;
  uint64_t rows_hash;
  uint64_t tasks;
  uint64_t shuffle_records;
  uint64_t join_comparisons;
  uint64_t simulated_ns;
};

/// FNV-1a over the variable names, then every cell in row-major order.
uint64_t HashRawRows(const sparql::BindingTable& table) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& var : table.vars()) {
    for (char c : var) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }
  mix(table.rows().size());
  for (rdf::TermId cell : table.rows().data()) mix(cell);
  return h;
}

const std::vector<RowOrderGolden>& RowOrderGoldens() {
  static const std::vector<RowOrderGolden>* runs =
      new std::vector<RowOrderGolden>{
          // RDFSPARK_ROW_ORDER_TABLE_BEGIN
          {"HAQWA", "star3", 0xd4bc50e5cfbf8819ull, 8ull, 0ull, 0ull, 212300ull},
          {"HAQWA", "star5", 0xf4b1b058b1209dd0ull, 8ull, 0ull, 0ull, 213660ull},
          {"HAQWA", "linear2", 0xfd2bad9a55a4623cull, 40ull, 19ull, 17ull, 1026110ull},
          {"HAQWA", "linear3", 0x223a5a8a44e0f8a8ull, 72ull, 33ull, 29ull, 1841270ull},
          {"HAQWA", "snowflake", 0x30a7e08da9508fefull, 72ull, 33ull, 29ull, 1843510ull},
          {"HAQWA", "complex_filter", 0x3cd2e6c3cab7c96dull, 40ull, 52ull, 84ull, 1053720ull},
          {"HAQWA", "single_pattern", 0xd4bc50e5cfbf8819ull, 8ull, 0ull, 0ull, 211500ull},
          {"HAQWA", "constant_subject", 0xfa07c7da60d73234ull, 8ull, 0ull, 0ull, 210300ull},
          {"HAQWA", "constant_object", 0x9d26bd6303e57983ull, 8ull, 0ull, 0ull, 210460ull},
          {"HAQWA", "object_object", 0x5315d8c2f1f93b01ull, 40ull, 60ull, 115ull, 1050550ull},
          {"HAQWA", "no_answers", 0x7d5e66c6b618daa4ull, 40ull, 14ull, 12ull, 1022360ull},
          {"HAQWA", "unknown_uri", 0x7d5e66c6b618daa4ull, 8ull, 0ull, 0ull, 210300ull},
          {"HAQWA", "optional", 0x453b0496b0450dc6ull, 16ull, 0ull, 0ull, 422200ull},
          {"HAQWA", "union", 0x6d1731fd9fb1a3faull, 16ull, 0ull, 0ull, 421240ull},
          {"HAQWA", "distinct_order", 0xd5c63c12e099ebacull, 8ull, 0ull, 0ull, 211500ull},
          {"HAQWA", "ask_yes", 0x29034675a49f07c2ull, 8ull, 0ull, 0ull, 210300ull},
          {"SPARQLGX", "star3", 0xc03dae80a857dc59ull, 13ull, 8ull, 24ull, 718590ull},
          {"SPARQLGX", "star5", 0xada8f5d8861b5d90ull, 21ull, 12ull, 58ull, 1128040ull},
          {"SPARQLGX", "linear2", 0x7567f30380dd90fcull, 5ull, 2ull, 17ull, 305560ull},
          {"SPARQLGX", "linear3", 0xb7ff796cccd45c28ull, 9ull, 4ull, 29ull, 507310ull},
          {"SPARQLGX", "snowflake", 0x482a62683bc9056full, 38ull, 27ull, 75ull, 2158910ull},
          {"SPARQLGX", "complex_filter", 0x4ceff3a6529d502dull, 39ull, 32ull, 397ull, 2229890ull},
          {"SPARQLGX", "single_pattern", 0x156419eab4e34099ull, 1ull, 0ull, 0ull, 102730ull},
          {"SPARQLGX", "constant_subject", 0xfa07c7da60d73234ull, 8ull, 0ull, 0ull, 208400ull},
          {"SPARQLGX", "constant_object", 0xc7e7574855e872e3ull, 2ull, 0ull, 0ull, 103680ull},
          {"SPARQLGX", "object_object", 0x143afa6017383341ull, 9ull, 6ull, 115ull, 529000ull},
          {"SPARQLGX", "no_answers", 0x7d5e66c6b618daa4ull, 9ull, 4ull, 6ull, 504930ull},
          {"SPARQLGX", "unknown_uri", 0x7d5e66c6b618daa4ull, 1ull, 0ull, 0ull, 100210ull},
          {"SPARQLGX", "optional", 0x7596805405c73206ull, 3ull, 0ull, 0ull, 207570ull},
          {"SPARQLGX", "union", 0x42472c6422cc495aull, 4ull, 0ull, 0ull, 207200ull},
          {"SPARQLGX", "distinct_order", 0xd5c63c12e099ebacull, 1ull, 0ull, 0ull, 102730ull},
          {"SPARQLGX", "ask_yes", 0x29034675a49f07c2ull, 2ull, 0ull, 0ull, 103440ull},
          {"S2RDF", "star3", 0x156419eab4e34099ull, 4ull, 0ull, 24ull, 411040ull},
          {"S2RDF", "star5", 0x02c0f961ae4bccd0ull, 6ull, 0ull, 53ull, 622820ull},
          {"S2RDF", "linear2", 0x7567f30380dd90fcull, 3ull, 0ull, 17ull, 308850ull},
          {"S2RDF", "linear3", 0xb7ff796cccd45c28ull, 4ull, 0ull, 29ull, 412510ull},
          {"S2RDF", "snowflake", 0xa7ebb9ae7a56dfafull, 9ull, 0ull, 75ull, 924750ull},
          {"S2RDF", "complex_filter", 0x6140dd4a5decd6edull, 10ull, 0ull, 415ull, 1040300ull},
          {"S2RDF", "single_pattern", 0x156419eab4e34099ull, 2ull, 0ull, 0ull, 203360ull},
          {"S2RDF", "constant_subject", 0xfa07c7da60d73234ull, 24ull, 0ull, 0ull, 608390ull},
          {"S2RDF", "constant_object", 0xc7e7574855e872e3ull, 6ull, 0ull, 0ull, 303960ull},
          {"S2RDF", "object_object", 0xbea91b2bd158f081ull, 3ull, 0ull, 115ull, 362120ull},
          {"S2RDF", "no_answers", 0x7d5e66c6b618daa4ull, 4ull, 0ull, 0ull, 402310ull},
          {"S2RDF", "unknown_uri", 0x7d5e66c6b618daa4ull, 24ull, 0ull, 0ull, 607550ull},
          {"S2RDF", "optional", 0x7596805405c73206ull, 8ull, 0ull, 0ull, 509300ull},
          {"S2RDF", "union", 0x42472c6422cc495aull, 12ull, 0ull, 0ull, 607540ull},
          {"S2RDF", "distinct_order", 0xd5c63c12e099ebacull, 2ull, 0ull, 0ull, 203360ull},
          {"S2RDF", "ask_yes", 0x29034675a49f07c2ull, 6ull, 0ull, 0ull, 303390ull},
          {"Hybrid_SparkSQL_naive", "star3", 0x156419eab4e34099ull, 2288ull, 0ull, 1668ull, 57272390ull},
          {"Hybrid_SparkSQL_naive", "star5", 0x02c0f961ae4bccd0ull, 145168ull, 0ull, 2016ull, 3629300500ull},
          {"Hybrid_SparkSQL_naive", "linear2", 0x17e15e3d8a01153cull, 288ull, 0ull, 180ull, 7223350ull},
          {"Hybrid_SparkSQL_naive", "linear3", 0x39a80e7a75ab5828ull, 2288ull, 0ull, 225ull, 57233150ull},
          {"Hybrid_SparkSQL_naive", "snowflake", 0xdb227d50ad061eafull, 1160992ull, 0ull, 3255ull, 29024941050ull},
          {"Hybrid_SparkSQL_naive", "single_pattern", 0x156419eab4e34099ull, 24ull, 0ull, 0ull, 608670ull},
          {"Hybrid_SparkSQL_naive", "constant_subject", 0xfa07c7da60d73234ull, 24ull, 0ull, 0ull, 608390ull},
          {"Hybrid_SparkSQL_naive", "constant_object", 0xc7e7574855e872e3ull, 24ull, 0ull, 0ull, 607930ull},
          {"Hybrid_SparkSQL_naive", "object_object", 0x88e3152e8f777441ull, 288ull, 0ull, 1768ull, 7282170ull},
          {"Hybrid_SparkSQL_naive", "no_answers", 0x7d5e66c6b618daa4ull, 288ull, 0ull, 72ull, 7217800ull},
          {"Hybrid_SparkSQL_naive", "unknown_uri", 0x7d5e66c6b618daa4ull, 24ull, 0ull, 0ull, 607550ull},
          {"Hybrid_SparkSQL_naive", "distinct_order", 0xd5c63c12e099ebacull, 24ull, 0ull, 0ull, 608670ull},
          {"Hybrid_SparkSQL_naive", "ask_yes", 0x29034675a49f07c2ull, 24ull, 0ull, 0ull, 607740ull},
          {"Hybrid_RDD_partitioned", "star3", 0xdd46875b28a34619ull, 72ull, 26ull, 24ull, 1831900ull},
          {"Hybrid_RDD_partitioned", "star5", 0x563c8524eaf966d0ull, 136ull, 50ull, 53ull, 3454780ull},
          {"Hybrid_RDD_partitioned", "linear2", 0x55f45f727976433cull, 40ull, 19ull, 15ull, 1023670ull},
          {"Hybrid_RDD_partitioned", "linear3", 0x34b4fac179a609a8ull, 72ull, 30ull, 30ull, 1836380ull},
          {"Hybrid_RDD_partitioned", "snowflake", 0xa0025d7eb7bf394full, 168ull, 73ull, 75ull, 4269760ull},
          {"Hybrid_RDD_partitioned", "single_pattern", 0xdd46875b28a34619ull, 8ull, 0ull, 0ull, 210620ull},
          {"Hybrid_RDD_partitioned", "constant_subject", 0xfa07c7da60d73234ull, 8ull, 0ull, 0ull, 209820ull},
          {"Hybrid_RDD_partitioned", "constant_object", 0x69b5d8930c3d9fc3ull, 8ull, 0ull, 0ull, 209900ull},
          {"Hybrid_RDD_partitioned", "object_object", 0x1ad863f29875cd41ull, 40ull, 60ull, 142ull, 1041070ull},
          {"Hybrid_RDD_partitioned", "no_answers", 0x7d5e66c6b618daa4ull, 40ull, 14ull, 12ull, 1021140ull},
          {"Hybrid_RDD_partitioned", "unknown_uri", 0x7d5e66c6b618daa4ull, 8ull, 0ull, 0ull, 209820ull},
          {"Hybrid_RDD_partitioned", "distinct_order", 0xd5c63c12e099ebacull, 8ull, 0ull, 0ull, 210620ull},
          {"Hybrid_RDD_partitioned", "ask_yes", 0x29034675a49f07c2ull, 8ull, 0ull, 0ull, 209820ull},
          {"Hybrid_DataFrame_broadcast", "star3", 0x156419eab4e34099ull, 88ull, 0ull, 24ull, 2252210ull},
          {"Hybrid_DataFrame_broadcast", "star5", 0x02c0f961ae4bccd0ull, 152ull, 0ull, 53ull, 3875140ull},
          {"Hybrid_DataFrame_broadcast", "linear2", 0x1d879443d67e723cull, 56ull, 0ull, 15ull, 1419340ull},
          {"Hybrid_DataFrame_broadcast", "linear3", 0xee539bbe41557728ull, 88ull, 0ull, 30ull, 2228240ull},
          {"Hybrid_DataFrame_broadcast", "snowflake", 0xa7ebb9ae7a56dfafull, 184ull, 0ull, 75ull, 4691870ull},
          {"Hybrid_DataFrame_broadcast", "single_pattern", 0x156419eab4e34099ull, 24ull, 0ull, 0ull, 608670ull},
          {"Hybrid_DataFrame_broadcast", "constant_subject", 0xfa07c7da60d73234ull, 24ull, 0ull, 0ull, 608390ull},
          {"Hybrid_DataFrame_broadcast", "constant_object", 0xc7e7574855e872e3ull, 24ull, 0ull, 0ull, 607930ull},
          {"Hybrid_DataFrame_broadcast", "object_object", 0xd77a7bd42eb42d01ull, 56ull, 0ull, 142ull, 1432880ull},
          {"Hybrid_DataFrame_broadcast", "no_answers", 0x7d5e66c6b618daa4ull, 56ull, 0ull, 12ull, 1416140ull},
          {"Hybrid_DataFrame_broadcast", "unknown_uri", 0x7d5e66c6b618daa4ull, 24ull, 0ull, 0ull, 607550ull},
          {"Hybrid_DataFrame_broadcast", "distinct_order", 0xd5c63c12e099ebacull, 24ull, 0ull, 0ull, 608670ull},
          {"Hybrid_DataFrame_broadcast", "ask_yes", 0x29034675a49f07c2ull, 24ull, 0ull, 0ull, 607740ull},
          {"Hybrid_Hybrid", "star3", 0xb52e340539d80899ull, 88ull, 0ull, 24ull, 2258620ull},
          {"Hybrid_Hybrid", "star5", 0x7b49261a95e99e90ull, 152ull, 0ull, 58ull, 3886620ull},
          {"Hybrid_Hybrid", "linear2", 0xdcafe7d8919baefcull, 56ull, 0ull, 17ull, 1424840ull},
          {"Hybrid_Hybrid", "linear3", 0xe9a81f1aea6c2ce8ull, 88ull, 0ull, 29ull, 2239160ull},
          {"Hybrid_Hybrid", "snowflake", 0x4c0661bd6984decfull, 184ull, 0ull, 75ull, 4704610ull},
          {"Hybrid_Hybrid", "single_pattern", 0xb52e340539d80899ull, 24ull, 0ull, 0ull, 610800ull},
          {"Hybrid_Hybrid", "constant_subject", 0xfa07c7da60d73234ull, 24ull, 0ull, 0ull, 610240ull},
          {"Hybrid_Hybrid", "constant_object", 0xee67206a193ef003ull, 24ull, 0ull, 0ull, 609970ull},
          {"Hybrid_Hybrid", "object_object", 0xef5fc04e45c88841ull, 56ull, 0ull, 115ull, 1456940ull},
          {"Hybrid_Hybrid", "no_answers", 0x7d5e66c6b618daa4ull, 56ull, 0ull, 6ull, 1421510ull},
          {"Hybrid_Hybrid", "unknown_uri", 0x7d5e66c6b618daa4ull, 24ull, 0ull, 0ull, 609400ull},
          {"Hybrid_Hybrid", "distinct_order", 0xd5c63c12e099ebacull, 24ull, 0ull, 0ull, 610800ull},
          {"Hybrid_Hybrid", "ask_yes", 0x29034675a49f07c2ull, 24ull, 0ull, 0ull, 609590ull},
          {"S2X", "star3", 0xdd46875b28a34619ull, 96ull, 42ull, 24ull, 2464120ull},
          {"S2X", "star5", 0x563c8524eaf966d0ull, 176ull, 80ull, 53ull, 4505820ull},
          {"S2X", "linear2", 0x2a91c4943aaae0fcull, 56ull, 24ull, 15ull, 1426090ull},
          {"S2X", "linear3", 0xa077777e58638568ull, 96ull, 36ull, 30ull, 2438360ull},
          {"S2X", "snowflake", 0xa0025d7eb7bf394full, 216ull, 103ull, 75ull, 5525750ull},
          {"S2X", "complex_filter", 0x2522037e2b8ce92dull, 216ull, 211ull, 306ull, 5617080ull},
          {"S2X", "single_pattern", 0x156419eab4e34099ull, 16ull, 0ull, 0ull, 411000ull},
          {"S2X", "constant_subject", 0xfa07c7da60d73234ull, 16ull, 0ull, 0ull, 409910ull},
          {"S2X", "constant_object", 0xc7e7574855e872e3ull, 16ull, 0ull, 0ull, 409190ull},
          {"S2X", "object_object", 0x74c7ee9ab6429dc1ull, 56ull, 41ull, 115ull, 1459030ull},
          {"S2X", "no_answers", 0x7d5e66c6b618daa4ull, 56ull, 0ull, 0ull, 1419530ull},
          {"S2X", "unknown_uri", 0x7d5e66c6b618daa4ull, 16ull, 0ull, 0ull, 407970ull},
          {"S2X", "optional", 0x7596805405c73206ull, 32ull, 0ull, 0ull, 821460ull},
          {"S2X", "union", 0x42472c6422cc495aull, 32ull, 0ull, 0ull, 817770ull},
          {"S2X", "distinct_order", 0xd5c63c12e099ebacull, 16ull, 0ull, 0ull, 411000ull},
          {"S2X", "ask_yes", 0x29034675a49f07c2ull, 16ull, 0ull, 0ull, 408530ull},
          {"GraphX_SM", "star3", 0x4e783b30902fb1d9ull, 248ull, 3639ull, 2806ull, 6717380ull},
          {"GraphX_SM", "star5", 0x6fb6c7f79a99b050ull, 472ull, 7270ull, 5612ull, 12839300ull},
          {"GraphX_SM", "linear2", 0xf66c4ff824e25fbcull, 120ull, 1812ull, 1403ull, 3260770ull},
          {"GraphX_SM", "linear3", 0x69d74300fcc07ce8ull, 216ull, 3610ull, 2806ull, 5910070ull},
          {"GraphX_SM", "snowflake", 0x888a411cf5413aafull, 552ull, 9056ull, 7015ull, 15092050ull},
          {"GraphX_SM", "single_pattern", 0x6a57fd5fef7da499ull, 24ull, 5ull, 0ull, 609660ull},
          {"GraphX_SM", "constant_subject", 0xe33641ca8d7d8f34ull, 24ull, 3ull, 0ull, 608750ull},
          {"GraphX_SM", "constant_object", 0x9d26bd6303e57983ull, 24ull, 6ull, 0ull, 609800ull},
          {"GraphX_SM", "object_object", 0x22d908c481f7aa41ull, 120ull, 1844ull, 1403ull, 3301830ull},
          {"GraphX_SM", "no_answers", 0x7d5e66c6b618daa4ull, 120ull, 1802ull, 1403ull, 3252000ull},
          {"GraphX_SM", "unknown_uri", 0x7d5e66c6b618daa4ull, 24ull, 0ull, 0ull, 607550ull},
          {"GraphX_SM", "distinct_order", 0xd5c63c12e099ebacull, 24ull, 5ull, 0ull, 609660ull},
          {"GraphX_SM", "ask_yes", 0x29034675a49f07c2ull, 24ull, 1ull, 0ull, 608390ull},
          {"Sparkql", "star3", 0xcddb89a11a23da99ull, 136ull, 1117ull, 828ull, 3568890ull},
          {"Sparkql", "star5", 0xf4b1b058b1209dd0ull, 360ull, 3357ull, 2109ull, 9604940ull},
          {"Sparkql", "linear2", 0x5149b5df4c92eb7cull, 248ull, 2363ull, 1529ull, 6570080ull},
          {"Sparkql", "linear3", 0xe08ebf636ccea768ull, 360ull, 3468ull, 2357ull, 9548710ull},
          {"Sparkql", "snowflake", 0x08220f49ee70a9cfull, 472ull, 4489ull, 3046ull, 12556790ull},
          {"Sparkql", "single_pattern", 0xcddb89a11a23da99ull, 136ull, 1242ull, 828ull, 3584310ull},
          {"Sparkql", "constant_subject", 0x84fdd9673534be34ull, 16ull, 0ull, 0ull, 421910ull},
          {"Sparkql", "constant_object", 0xb0db9d51cbc9b803ull, 8ull, 0ull, 0ull, 202770ull},
          {"Sparkql", "object_object", 0x47d0f29aef69ba41ull, 248ull, 2368ull, 1534ull, 6580390ull},
          {"Sparkql", "no_answers", 0x7d5e66c6b618daa4ull, 136ull, 1111ull, 697ull, 3569710ull},
          {"Sparkql", "unknown_uri", 0x7d5e66c6b618daa4ull, 0ull, 0ull, 0ull, 0ull},
          {"Sparkql", "distinct_order", 0xd5c63c12e099ebacull, 136ull, 1242ull, 828ull, 3584310ull},
          {"Sparkql", "ask_yes", 0x29034675a49f07c2ull, 8ull, 0ull, 0ull, 202250ull},
          {"GraphFrames", "star3", 0x156419eab4e34099ull, 80ull, 0ull, 24ull, 2055100ull},
          {"GraphFrames", "star5", 0x02c0f961ae4bccd0ull, 128ull, 0ull, 58ull, 3272860ull},
          {"GraphFrames", "linear2", 0x7567f30380dd90fcull, 56ull, 0ull, 17ull, 1415500ull},
          {"GraphFrames", "linear3", 0xb7ff796cccd45c28ull, 80ull, 0ull, 29ull, 2020390ull},
          {"GraphFrames", "snowflake", 0x45773560e392dcefull, 160ull, 0ull, 74ull, 4135120ull},
          {"GraphFrames", "single_pattern", 0x156419eab4e34099ull, 32ull, 0ull, 0ull, 809230ull},
          {"GraphFrames", "constant_subject", 0xfa07c7da60d73234ull, 24ull, 0ull, 0ull, 608660ull},
          {"GraphFrames", "constant_object", 0xc7e7574855e872e3ull, 40ull, 0ull, 0ull, 1011790ull},
          {"GraphFrames", "object_object", 0xbea91b2bd158f081ull, 56ull, 0ull, 115ull, 1460980ull},
          {"GraphFrames", "no_answers", 0x7d5e66c6b618daa4ull, 64ull, 0ull, 12ull, 1646340ull},
          {"GraphFrames", "unknown_uri", 0x7d5e66c6b618daa4ull, 32ull, 0ull, 0ull, 807550ull},
          {"GraphFrames", "distinct_order", 0xd5c63c12e099ebacull, 32ull, 0ull, 0ull, 809230ull},
          {"GraphFrames", "ask_yes", 0x29034675a49f07c2ull, 40ull, 0ull, 0ull, 1011420ull},
          {"SparkRDF", "star3", 0x74874a3517ce8619ull, 328ull, 99ull, 1796ull, 8238180ull},
          {"SparkRDF", "star5", 0x4e63b0885c540650ull, 632ull, 142ull, 2907ull, 15865680ull},
          {"SparkRDF", "linear2", 0x6a163fd15ab014fcull, 176ull, 34ull, 244ull, 4411060ull},
          {"SparkRDF", "linear3", 0x3cebd817ee139668ull, 208ull, 39ull, 256ull, 5215480ull},
          {"SparkRDF", "snowflake", 0x1fef53ef9e6e236full, 392ull, 125ull, 2405ull, 9877780ull},
          {"SparkRDF", "single_pattern", 0x156419eab4e34099ull, 24ull, 8ull, 0ull, 604160ull},
          {"SparkRDF", "constant_subject", 0xe33641ca8d7d8f34ull, 24ull, 3ull, 0ull, 609670ull},
          {"SparkRDF", "constant_object", 0x781b904ec7881cc3ull, 0ull, 0ull, 0ull, 0ull},
          {"SparkRDF", "object_object", 0xe023a43d34967a81ull, 176ull, 100ull, 1832ull, 4433760ull},
          {"SparkRDF", "no_answers", 0x7d5e66c6b618daa4ull, 24ull, 0ull, 0ull, 601000ull},
          {"SparkRDF", "unknown_uri", 0x7d5e66c6b618daa4ull, 24ull, 0ull, 0ull, 601000ull},
          {"SparkRDF", "distinct_order", 0xd5c63c12e099ebacull, 24ull, 8ull, 0ull, 604160ull},
          {"SparkRDF", "ask_yes", 0x29034675a49f07c2ull, 0ull, 0ull, 0ull, 0ull},
          // RDFSPARK_ROW_ORDER_TABLE_END
      };
  return *runs;
}

TEST(PlanRefactorEquivalenceTest, MatchesRowOrderGoldens) {
  const rdf::TripleStore& store = Dataset();
  const bool print = std::getenv("RDFSPARK_PRINT_GOLDEN") != nullptr;
  if (!print && RowOrderGoldens().empty()) {
    GTEST_SKIP() << "row-order table not captured yet";
  }
  size_t checked = 0;
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
    for (const auto& tq : TestQueries()) {
      auto query = sparql::ParseQuery(tq.text);
      ASSERT_TRUE(query.ok()) << tq.label;
      if (!query->where.IsPlainBgp() &&
          engine->traits().fragment == SparqlFragment::kBgp) {
        continue;
      }
      auto before = sc.metrics();
      auto result = engine->Execute(*query);
      auto delta = sc.metrics() - before;
      ASSERT_TRUE(result.ok()) << factory.name << " / " << tq.label << ": "
                               << result.status().ToString();
      uint64_t hash = HashRawRows(*result);
      uint64_t tasks = delta.tasks;
      uint64_t shuffle_records = delta.shuffle_records;
      uint64_t join_comparisons = delta.join_comparisons;
      uint64_t simulated_ns = delta.simulated_ms.nanos();
      if (print) {
        std::printf(
            "          {\"%s\", \"%s\", 0x%016llxull, %lluull, %lluull, "
            "%lluull, %lluull},\n",
            factory.name.c_str(), tq.label,
            static_cast<unsigned long long>(hash),
            static_cast<unsigned long long>(tasks),
            static_cast<unsigned long long>(shuffle_records),
            static_cast<unsigned long long>(join_comparisons),
            static_cast<unsigned long long>(simulated_ns));
        continue;
      }
      auto golden = std::find_if(
          RowOrderGoldens().begin(), RowOrderGoldens().end(),
          [&](const RowOrderGolden& g) {
            return factory.name == g.variant &&
                   std::string(tq.label) == g.query;
          });
      ASSERT_NE(golden, RowOrderGoldens().end())
          << "no row-order golden for " << factory.name << " / " << tq.label;
      ++checked;
      EXPECT_EQ(hash, golden->rows_hash) << factory.name << " / " << tq.label;
      EXPECT_EQ(tasks, golden->tasks) << factory.name << " / " << tq.label;
      EXPECT_EQ(shuffle_records, golden->shuffle_records)
          << factory.name << " / " << tq.label;
      EXPECT_EQ(join_comparisons, golden->join_comparisons)
          << factory.name << " / " << tq.label;
      EXPECT_EQ(simulated_ns, golden->simulated_ns)
          << factory.name << " / " << tq.label;
    }
  }
  if (!print) {
    EXPECT_EQ(checked, RowOrderGoldens().size());
  }
}

/// The batch data plane must not depend on task interleaving: every engine
/// variant produces the same rows in the same order whether the executor
/// pool has one thread or eight. Compares the raw flat buffers (variables,
/// width, cells), which is strictly stronger than the order-insensitive
/// decoded hash.
TEST(PlanRefactorEquivalenceTest, ResultsBitIdenticalAcrossThreading) {
  const std::vector<const char*> kLabels = {"star3", "linear3", "snowflake",
                                            "object_object"};
  const rdf::TripleStore& store = Dataset();
  std::vector<TestQuery> queries = TestQueries();
  for (const auto& factory : Factories()) {
    for (const char* label : kLabels) {
      auto it = std::find_if(
          queries.begin(), queries.end(),
          [label](const TestQuery& q) { return std::string(q.label) == label; });
      ASSERT_NE(it, queries.end()) << label;
      auto query = sparql::ParseQuery(it->text);
      ASSERT_TRUE(query.ok()) << label;
      sparql::BindingTable serial;
      sparql::BindingTable pooled;
      for (auto [threads, out] :
           {std::pair<int, sparql::BindingTable*>{1, &serial}, {8, &pooled}}) {
        ClusterConfig cfg = SmallCluster();
        cfg.executor_threads = threads;
        SparkContext sc(cfg);
        auto engine = factory.make(&sc);
        ASSERT_TRUE(engine->Load(store).ok()) << factory.name;
        auto result = engine->Execute(*query);
        ASSERT_TRUE(result.ok()) << factory.name << " / " << label;
        *out = std::move(*result);
      }
      EXPECT_EQ(serial.vars(), pooled.vars()) << factory.name << " / " << label;
      EXPECT_EQ(serial.rows().width(), pooled.rows().width())
          << factory.name << " / " << label;
      EXPECT_EQ(serial.rows().data(), pooled.rows().data())
          << factory.name << " / " << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared planning blocks (systems/common.h, systems/plan/planner_utils.h).
// ---------------------------------------------------------------------------

rdf::Term TinyUri(const std::string& name) {
  return rdf::Term::Uri("http://tiny.example.org/" + name);
}
sparql::PatternTerm Var(const std::string& name) {
  return sparql::PatternTerm::Var(name);
}
sparql::PatternTerm Uri(const std::string& name) {
  return sparql::PatternTerm::Const(TinyUri(name));
}

/// a knows b, b knows c, a knows a, c likes a.
const rdf::TripleStore& TinyStore() {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    for (const auto& [subj, pred, obj] :
         {std::tuple<const char*, const char*, const char*>{"a", "knows", "b"},
          {"b", "knows", "c"},
          {"a", "knows", "a"},
          {"c", "likes", "a"}}) {
      s->Add(rdf::Triple{TinyUri(subj), TinyUri(pred), TinyUri(obj)});
    }
    return s;
  }();
  return *store;
}

rdf::EncodedTriple TinyTriple(const char* subj, const char* pred,
                              const char* obj) {
  const rdf::Dictionary& dict = TinyStore().dictionary();
  return rdf::EncodedTriple{*dict.Lookup(TinyUri(subj)),
                            *dict.Lookup(TinyUri(pred)),
                            *dict.Lookup(TinyUri(obj))};
}

rdf::TermId TinyId(const char* name) {
  return *TinyStore().dictionary().Lookup(TinyUri(name));
}

VarSchema Schema(const std::vector<std::string>& vars) {
  VarSchema schema;
  for (const auto& v : vars) schema.Add(v);
  return schema;
}

TEST(AppendMatchTest, ConstantMismatchAppendsNothing) {
  VarSchema schema = Schema({"x", "y"});
  EncodedPattern ep = EncodePattern(TinyStore().dictionary(),
                                    {Var("x"), Uri("likes"), Var("y")}, schema);
  sparql::IdTable out(2);
  EXPECT_FALSE(AppendMatch(ep, TinyTriple("a", "knows", "b"), {}, &out));
  EXPECT_TRUE(out.empty());
  // A constant absent from the data matches nothing at all.
  EncodedPattern absent =
      EncodePattern(TinyStore().dictionary(),
                    {Var("x"), Uri("nowhere"), Var("y")}, schema);
  ASSERT_TRUE(absent.impossible);
  EXPECT_FALSE(AppendMatch(absent, TinyTriple("a", "knows", "b"), {}, &out));
  EXPECT_TRUE(out.empty());
}

TEST(AppendMatchTest, RepeatedVariablePopsTheConflictingRow) {
  EncodedPattern ep =
      EncodePattern(TinyStore().dictionary(),
                    {Var("x"), Uri("knows"), Var("x")}, Schema({"x"}));
  sparql::IdTable out(1);
  EXPECT_FALSE(AppendMatch(ep, TinyTriple("a", "knows", "b"), {}, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(AppendMatch(ep, TinyTriple("a", "knows", "a"), {}, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.cell(0, 0), TinyId("a"));
}

TEST(AppendMatchTest, CopiesTheBaseRowThenExtendsIt) {
  EncodedPattern ep =
      EncodePattern(TinyStore().dictionary(),
                    {Var("y"), Uri("knows"), Var("z")}, Schema({"x", "y", "z"}));
  sparql::IdTable base(3);
  base.AppendRow(std::vector<rdf::TermId>{TinyId("c"), TinyId("a"),
                                          sparql::kUnbound});
  sparql::IdTable out(3);
  out.AppendRowFilled(sparql::kUnbound);
  EXPECT_TRUE(
      AppendMatch(ep, TinyTriple("a", "knows", "b"), base.row(0), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.cell(0, 0), sparql::kUnbound);  // earlier rows untouched
  EXPECT_EQ(out.cell(1, 0), TinyId("c"));
  EXPECT_EQ(out.cell(1, 1), TinyId("a"));
  EXPECT_EQ(out.cell(1, 2), TinyId("b"));
  EXPECT_EQ(base.cell(0, 2), sparql::kUnbound);  // the base stays as it was
}

TEST(AppendMatchTest, ConflictingBaseBindingIsRejected) {
  EncodedPattern ep =
      EncodePattern(TinyStore().dictionary(),
                    {Var("x"), Uri("knows"), Var("y")}, Schema({"x", "y"}));
  sparql::IdTable base(2);
  base.AppendRow(std::vector<rdf::TermId>{TinyId("b"), sparql::kUnbound});
  sparql::IdTable out(2);
  EXPECT_FALSE(
      AppendMatch(ep, TinyTriple("a", "knows", "b"), base.row(0), &out));
  EXPECT_TRUE(out.empty());
}

TEST(AppendMatchTest, VariableOutsideTheSchemaIsIgnored) {
  EncodedPattern ep =
      EncodePattern(TinyStore().dictionary(),
                    {Var("x"), Uri("knows"), Var("y")}, Schema({"x"}));
  EXPECT_EQ(ep.cells, (std::array<int, 3>{0, -1, -1}));
  sparql::IdTable out(1);
  EXPECT_TRUE(AppendMatch(ep, TinyTriple("a", "knows", "b"), {}, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.cell(0, 0), TinyId("a"));
}

TEST(PlannerUtilsTest, OrderConnectedReturnsIndices) {
  std::vector<sparql::TriplePattern> bgp = {
      {Var("a"), Uri("knows"), Var("b")},
      {Var("c"), Uri("knows"), Var("d")},
      {Var("b"), Uri("knows"), Var("c")},
      {Var("e"), Uri("likes"), Var("f")}};
  EXPECT_EQ(plan::OrderConnected(bgp, 0), (std::vector<size_t>{0, 2, 1, 3}));
  EXPECT_EQ(plan::OrderConnected(bgp, 1), (std::vector<size_t>{1, 2, 0, 3}));
  // A start past the end starts at the last pattern.
  EXPECT_EQ(plan::OrderConnected(bgp, 9), (std::vector<size_t>{3, 0, 2, 1}));
  EXPECT_TRUE(plan::OrderConnected({}, 0).empty());
}

TEST(PlannerUtilsTest, BatchJoinChainIsLeftDeep) {
  SparkContext sc(SmallCluster());
  std::vector<sparql::TriplePattern> ordered = {
      {Var("x"), Uri("knows"), Var("y")},
      {Var("y"), Uri("knows"), Var("z")},
      {Var("u"), Uri("likes"), Var("v")}};
  auto schema = std::make_shared<const VarSchema>(BgpSchema(ordered));
  std::vector<size_t> built;
  auto root = plan::BatchJoinChain(&sc, schema, ordered, [&](size_t i) {
    built.push_back(i);
    return plan::MakeScan(plan::NodeKind::kPatternScan,
                          plan::AccessPath::kFullScan, ordered[i].ToString(),
                          i, nullptr);
  });
  EXPECT_EQ(built, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(plan::Explain(*root),
            "Project [?x ?y ?z ?u ?v] (est=?)\n"
            "  CartesianProduct [merge-rows] (est=?)\n"
            "    PartitionedHashJoin [on ?y] (est=?)\n"
            "      PatternScan [full-scan ?x <http://tiny.example.org/knows> "
            "?y .] (est=0)\n"
            "      PatternScan [full-scan ?y <http://tiny.example.org/knows> "
            "?z .] (est=1)\n"
            "    PatternScan [full-scan ?u <http://tiny.example.org/likes> "
            "?v .] (est=2)\n");
  EXPECT_EQ(root->key_vars,
            (std::vector<std::string>{"x", "y", "z", "u", "v"}));
  const plan::PlanNode& cartesian = *root->children[0];
  EXPECT_TRUE(cartesian.key_vars.empty());
  EXPECT_EQ(cartesian.children[0]->key_vars, std::vector<std::string>{"y"});
}

TEST(EstimatorTest, PredicateCount) {
  const rdf::TripleStore& store = TinyStore();
  rdf::DatasetStatistics stats = store.ComputeStatistics();
  const rdf::Dictionary& dict = store.dictionary();
  EXPECT_EQ(PredicateCount(dict, stats, {Var("x"), Var("p"), Var("y")}), 4u);
  EXPECT_EQ(PredicateCount(dict, stats, {Var("x"), Uri("knows"), Var("y")}),
            3u);
  // Absent from the dictionary, or present but never a predicate.
  EXPECT_EQ(PredicateCount(dict, stats, {Var("x"), Uri("nowhere"), Var("y")}),
            0u);
  EXPECT_EQ(PredicateCount(dict, stats, {Var("x"), Uri("a"), Var("y")}), 0u);
}

TEST(EstimatorTest, DistinctCountEstimate) {
  const rdf::TripleStore& store = TinyStore();
  rdf::DatasetStatistics stats = store.ComputeStatistics();
  const rdf::Dictionary& dict = store.dictionary();
  // 4 triples; 3 distinct subjects and 3 distinct objects.
  EXPECT_EQ(
      DistinctCountEstimate(dict, stats, {Var("x"), Var("p"), Var("y")}), 5u);
  EXPECT_EQ(
      DistinctCountEstimate(dict, stats, {Uri("a"), Var("p"), Var("y")}), 2u);
  EXPECT_EQ(
      DistinctCountEstimate(dict, stats, {Var("x"), Uri("knows"), Var("y")}),
      4u);
  EXPECT_EQ(
      DistinctCountEstimate(dict, stats, {Uri("a"), Uri("knows"), Uri("b")}),
      1u);
  EXPECT_EQ(DistinctCountEstimate(dict, stats,
                                  {Var("x"), Uri("nowhere"), Var("y")}),
            0u);
}

// ---------------------------------------------------------------------------
// Engine-specific behaviour.
// ---------------------------------------------------------------------------

TEST(HaqwaTest, StarQueriesShuffleNothing) {
  SparkContext sc(SmallCluster());
  HaqwaEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto before = sc.metrics();
  auto result =
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kStar, 4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_EQ(delta.shuffle_records, 0u)
      << "subject-hash fragmentation must answer star queries locally";
  EXPECT_GT(result->num_rows(), 0u);
}

TEST(HaqwaTest, WorkloadReplicationRemovesLinearShuffles) {
  const std::string linear = rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3);

  SparkContext sc_plain(SmallCluster());
  HaqwaEngine plain(&sc_plain);
  ASSERT_TRUE(plain.Load(Dataset()).ok());
  auto before_plain = sc_plain.metrics();
  ASSERT_TRUE(plain.ExecuteText(linear).ok());
  auto delta_plain = sc_plain.metrics() - before_plain;

  SparkContext sc_aware(SmallCluster());
  HaqwaEngine::Options opts;
  opts.frequent_queries = {linear};
  HaqwaEngine aware(&sc_aware, opts);
  ASSERT_TRUE(aware.Load(Dataset()).ok());
  EXPECT_GT(aware.replicated_triples(), 0u);
  auto before_aware = sc_aware.metrics();
  ASSERT_TRUE(aware.ExecuteText(linear).ok());
  auto delta_aware = sc_aware.metrics() - before_aware;

  EXPECT_LT(delta_aware.shuffle_records, delta_plain.shuffle_records)
      << "workload-aware replication must reduce query-time shuffling";
}

TEST(SparqlgxTest, BoundedPredicateReadsOnlyItsPartition) {
  SparkContext sc(SmallCluster());
  SparqlgxEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) + ">\n";
  auto before = sc.metrics();
  auto result = engine.ExecuteText(
      prologue + "SELECT ?x ?d WHERE { ?x ub:headOf ?d }");
  ASSERT_TRUE(result.ok());
  auto delta = sc.metrics() - before;
  // headOf has 3 triples; processing must not touch the whole dataset.
  EXPECT_LT(delta.records_processed, Dataset().size() / 4);
}

TEST(SparqlgxTest, StatisticsReorderingReducesIntermediateRecords) {
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
      ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  // Written worst-first: the huge name pattern precedes the selective one.
  const std::string query = prologue +
                            "SELECT ?x ?n WHERE { ?x ub:name ?n . "
                            "?x ub:headOf ?d . }";

  SparkContext sc1(SmallCluster());
  SparqlgxEngine::Options no_stats;
  no_stats.enable_statistics_reordering = false;
  SparqlgxEngine unopt(&sc1, no_stats);
  ASSERT_TRUE(unopt.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = unopt.ExecuteText(query);
  ASSERT_TRUE(r1.ok());
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  SparqlgxEngine opt(&sc2);
  ASSERT_TRUE(opt.Load(Dataset()).ok());
  auto before2 = sc2.metrics();
  auto r2 = opt.ExecuteText(query);
  ASSERT_TRUE(r2.ok());
  auto delta2 = sc2.metrics() - before2;

  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LE(delta2.shuffle_records, delta1.shuffle_records);
}

TEST(S2rdfTest, TranslatesBgpToSql) {
  SparkContext sc(SmallCluster());
  S2rdfEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto query = sparql::ParseQuery(
      rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
  ASSERT_TRUE(query.ok());
  auto sql = engine.TranslateBgpToSql(query->where.bgp);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_NE(sql->find("SELECT"), std::string::npos);
  EXPECT_NE(sql->find("JOIN"), std::string::npos);
  EXPECT_NE(sql->find(" ON "), std::string::npos);
}

TEST(S2rdfTest, ExtVpMaterializesOnlyUnderThreshold) {
  SparkContext sc(SmallCluster());
  S2rdfEngine::Options strict;
  strict.selectivity_threshold = 0.25;
  S2rdfEngine small(&sc, strict);
  ASSERT_TRUE(small.Load(Dataset()).ok());

  SparkContext sc2(SmallCluster());
  S2rdfEngine::Options loose;
  loose.selectivity_threshold = 1.0;
  S2rdfEngine big(&sc2, loose);
  ASSERT_TRUE(big.Load(Dataset()).ok());

  EXPECT_LT(small.num_extvp_tables(), big.num_extvp_tables());
  EXPECT_LT(small.extvp_rows(), big.extvp_rows());
  EXPECT_GT(big.num_extvp_tables(), 0u);
}

TEST(S2rdfTest, ExtVpShrinksJoinInputs) {
  const std::string linear = rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 2);

  SparkContext sc1(SmallCluster());
  S2rdfEngine::Options off;
  off.enable_extvp = false;
  S2rdfEngine vp_only(&sc1, off);
  ASSERT_TRUE(vp_only.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = vp_only.ExecuteText(linear);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  S2rdfEngine::Options on;
  on.selectivity_threshold = 1.0;
  S2rdfEngine extvp(&sc2, on);
  ASSERT_TRUE(extvp.Load(Dataset()).ok());
  auto before2 = sc2.metrics();
  auto r2 = extvp.ExecuteText(linear);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto delta2 = sc2.metrics() - before2;

  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LT(delta2.join_comparisons, delta1.join_comparisons)
      << "semi-join reduced tables must cut join work";
}

TEST(S2xTest, FixpointIteratesAndPrunes) {
  SparkContext sc(SmallCluster());
  S2xEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto before = sc.metrics();
  auto result =
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_GE(engine.last_iterations(), 2);  // at least one pruning round
  EXPECT_GT(delta.supersteps, 0u);
  EXPECT_GT(delta.messages, 0u);
  EXPECT_GT(result->num_rows(), 0u);
}

TEST(S2xTest, LongerChainsNeedMoreIterations) {
  SparkContext sc(SmallCluster());
  S2xEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  ASSERT_TRUE(
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 2))
          .ok());
  int short_iters = engine.last_iterations();
  ASSERT_TRUE(
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 4))
          .ok());
  int long_iters = engine.last_iterations();
  EXPECT_GE(long_iters, short_iters);
}

TEST(S2xTest, SpentPlanFailsInsteadOfRunningAgain) {
  SparkContext sc(SmallCluster());
  S2xEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  EXPECT_FALSE(engine.ReusablePlans());
  auto query =
      sparql::ParseQuery(rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3));
  ASSERT_TRUE(query.ok());
  auto expected = engine.Execute(*query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto planned = engine.PlanQuery(*query);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto first = engine.ExecutePlanned(*query, **planned);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->num_rows(), 0u);
  EXPECT_EQ(first->Decode(Dataset().dictionary()),
            expected->Decode(Dataset().dictionary()));
  // The first run moved the match rows out; a second run must say so
  // instead of reading them.
  auto second = engine.ExecutePlanned(*query, **planned);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(second.status().message().find("single-use"), std::string::npos)
      << second.status().ToString();
}

TEST(GraphxSmTest, MessagesFlowPerPattern) {
  SparkContext sc(SmallCluster());
  GraphxSmEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  auto before = sc.metrics();
  auto result =
      engine.ExecuteText(rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_GT(delta.messages, 0u);
  EXPECT_GT(result->num_rows(), 0u);
}

TEST(GraphFramesTest, PruningShrinksProcessedRecords) {
  const std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3);

  SparkContext sc1(SmallCluster());
  GraphFramesEngine::Options off;
  off.enable_pruning = false;
  off.enable_frequency_ordering = false;
  GraphFramesEngine unopt(&sc1, off);
  ASSERT_TRUE(unopt.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = unopt.ExecuteText(query);
  ASSERT_TRUE(r1.ok());
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  GraphFramesEngine opt(&sc2);
  ASSERT_TRUE(opt.Load(Dataset()).ok());
  auto before2 = sc2.metrics();
  auto r2 = opt.ExecuteText(query);
  ASSERT_TRUE(r2.ok());
  auto delta2 = sc2.metrics() - before2;

  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LT(delta2.join_comparisons, delta1.join_comparisons);
  EXPECT_LT(delta2.records_processed, delta1.records_processed);
}

TEST(SparkRdfTest, ClassIndexesCutProcessedRecords) {
  const std::string query = rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake);

  SparkContext sc1(SmallCluster());
  SparkRdfEngine::Options off;
  off.enable_class_indexes = false;
  SparkRdfEngine plain(&sc1, off);
  ASSERT_TRUE(plain.Load(Dataset()).ok());
  auto before1 = sc1.metrics();
  auto r1 = plain.ExecuteText(query);
  ASSERT_TRUE(r1.ok());
  auto delta1 = sc1.metrics() - before1;

  SparkContext sc2(SmallCluster());
  SparkRdfEngine indexed(&sc2);
  auto load = indexed.Load(Dataset());
  ASSERT_TRUE(load.ok());
  // MESG's levels 2/3 store extra copies: a storage blow-up...
  auto load_plain = plain.Load(Dataset());
  ASSERT_TRUE(load_plain.ok());
  EXPECT_GT(load->stored_records, load_plain->stored_records);
  auto before2 = sc2.metrics();
  auto r2 = indexed.ExecuteText(query);
  ASSERT_TRUE(r2.ok());
  auto delta2 = sc2.metrics() - before2;

  // ...traded for less data read and joined at query time.
  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_LT(delta2.records_processed, delta1.records_processed);
}

TEST(SparkqlTest, DataPropertiesLiveInNodes) {
  SparkContext sc(SmallCluster());
  SparkqlEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  // A pure data-property star never touches edges: no messages at all.
  const std::string prologue =
      "PREFIX ub: <" + std::string(rdf::kUbPrefix) +
      ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  auto before = sc.metrics();
  auto result = engine.ExecuteText(
      prologue +
      "SELECT ?x ?n WHERE { ?x rdf:type ub:FullProfessor . ?x ub:name ?n }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto delta = sc.metrics() - before;
  EXPECT_GT(result->num_rows(), 0u);
  EXPECT_EQ(delta.messages, 0u)
      << "node-local predicates must not exchange messages";
}

TEST(MakeAllEnginesTest, ProducesNineSystems) {
  SparkContext sc(SmallCluster());
  auto engines = MakeAllEngines(&sc);
  ASSERT_EQ(engines.size(), 9u);
  // Names unique, traits populated.
  std::set<std::string> names;
  for (const auto& e : engines) {
    EXPECT_FALSE(e->traits().name.empty());
    EXPECT_FALSE(e->traits().citation.empty());
    EXPECT_FALSE(e->traits().abstractions.empty());
    names.insert(e->traits().name);
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(TraitsTest, TableRowsMatchPaper) {
  SparkContext sc(SmallCluster());
  HaqwaEngine haqwa(&sc);
  EXPECT_EQ(haqwa.traits().partitioning, "Hash / Query Aware");
  EXPECT_EQ(haqwa.traits().query_processing, "RDD API");
  EXPECT_FALSE(haqwa.traits().has_optimization);

  SparqlgxEngine gx(&sc);
  EXPECT_EQ(gx.traits().partitioning, "Vertical");
  EXPECT_TRUE(gx.traits().has_optimization);

  S2rdfEngine s2rdf(&sc);
  EXPECT_EQ(s2rdf.traits().partitioning, "Extended Vertical");
  EXPECT_EQ(s2rdf.traits().query_processing, "Spark SQL");
  EXPECT_EQ(s2rdf.traits().fragment, SparqlFragment::kBgpPlus);
}

}  // namespace
}  // namespace rdfspark::systems
