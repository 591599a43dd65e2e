// Static plan verifier tests: every rule id triggered by a hand-built plan
// tree, clean trees produce no findings, and all engine plans for the
// golden LUBM shapes verify error-free under debug-check mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rdf/generator.h"
#include "rdf/store.h"
#include "spark/hb.h"
#include "spark/lineage.h"
#include "sparql/parser.h"
#include "systems/engine.h"
#include "systems/plan/verifier.h"
#include "systems/s2rdf.h"
#include "systems/sparqlgx.h"

namespace rdfspark::systems {
namespace {

using plan::AccessPath;
using plan::Diagnostic;
using plan::EngineProfile;
using plan::MakeBinary;
using plan::MakeScan;
using plan::MakeUnary;
using plan::NodeKind;
using plan::PlanPtr;
using plan::Severity;
using plan::VerifyPlan;
using spark::ClusterConfig;
using spark::SparkContext;

/// A descriptive pattern-scan leaf binding `vars`, subject bound to
/// `subject` (empty = constant subject).
PlanPtr Scan(std::vector<std::string> vars, std::string subject,
             uint64_t est = 10, AccessPath access = AccessPath::kVpTable) {
  auto node = MakeScan(NodeKind::kPatternScan, access, "test scan", est,
                       nullptr);
  node->out_vars = std::move(vars);
  node->subject_var = std::move(subject);
  return node;
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule,
              Severity severity) {
  int n = 0;
  for (const auto& d : diags) {
    if (d.rule == rule && d.severity == severity) ++n;
  }
  return n;
}

TEST(PlanVerifierTest, CleanJoinPlanHasNoFindings) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?x",
                         Scan({"x", "y"}, "x"), Scan({"x", "z"}, "x"),
                         nullptr);
  join->key_vars = {"x"};
  auto project = MakeUnary(NodeKind::kProject, "?x ?y ?z", std::move(join),
                           nullptr);
  project->key_vars = {"x", "y", "z"};
  EXPECT_TRUE(VerifyPlan(*project, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, Sc001FlagsConsumedVariableNobodyProduces) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?q",
                         Scan({"x", "y"}, "x"), Scan({"x", "z"}, "x"),
                         nullptr);
  join->key_vars = {"q"};  // no descendant binds ?q
  auto diags = VerifyPlan(*join, EngineProfile{"test"});
  ASSERT_EQ(CountRule(diags, "SC001", Severity::kError), 1);
  EXPECT_NE(diags[0].message.find("?q"), std::string::npos);
  EXPECT_NE(diags[0].node_path.find("PartitionedHashJoin"),
            std::string::npos);
}

TEST(PlanVerifierTest, Sc001AppliesToFiltersAndProjects) {
  auto filter = MakeUnary(NodeKind::kFilter, "?missing > 3",
                          Scan({"x"}, "x"), nullptr);
  filter->key_vars = {"missing"};
  auto project =
      MakeUnary(NodeKind::kProject, "?alsomissing", std::move(filter),
                nullptr);
  project->key_vars = {"alsomissing"};
  auto diags = VerifyPlan(*project, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "SC001", Severity::kError), 2);
}

TEST(PlanVerifierTest, Sc002FlagsKeylessJoinOverDisjointSchemas) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ???",
                         Scan({"a", "b"}, "a"), Scan({"c", "d"}, "c"),
                         nullptr);
  auto diags = VerifyPlan(*join, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "SC002", Severity::kError), 1);
}

TEST(PlanVerifierTest, Sc002SilentWhenSchemasOverlapOrAreUnannotated) {
  // Overlapping schemas: the join key was just not declared.
  auto overlap = MakeBinary(NodeKind::kPartitionedHashJoin, "",
                            Scan({"a", "b"}, "a"), Scan({"b", "c"}, "b"),
                            nullptr);
  EXPECT_TRUE(VerifyPlan(*overlap, EngineProfile{"test"}).empty());
  // Unannotated plan (no out_vars anywhere) must verify vacuously.
  auto bare = MakeBinary(NodeKind::kPartitionedHashJoin, "",
                         Scan({}, ""), Scan({}, ""), nullptr);
  EXPECT_TRUE(VerifyPlan(*bare, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, Cp001WarnsOnCartesianInMultiPatternBgp) {
  auto cross = MakeBinary(NodeKind::kCartesianProduct, "merge",
                          Scan({"a"}, "a"), Scan({"b"}, "b"), nullptr);
  auto diags = VerifyPlan(*cross, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "CP001", Severity::kWarn), 1);
  EXPECT_EQ(plan::FormatDiagnostic(diags[0]).rfind("WARN [CP001] at 0 "
                                                   "CartesianProduct:",
                                                   0),
            0u);
}

TEST(PlanVerifierTest, Cp001SilentForSinglePatternPlans) {
  // One scan leaf: the cross joins against a constant table, which is the
  // planner's prerogative (unit rows, class-index binds).
  auto constant = plan::ConstantResultPlan(sparql::BindingTable::Unit(),
                                           "unit");
  auto cross = MakeBinary(NodeKind::kCartesianProduct, "bind",
                          std::move(constant), Scan({"a"}, "a"), nullptr);
  EXPECT_TRUE(VerifyPlan(*cross, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, Bc001WarnsWhenBroadcastBuildSideExceedsThreshold) {
  EngineProfile profile{"test"};
  profile.broadcast_threshold_bytes = 10000;
  // Smaller side: 1000 rows x 2 vars x 9 bytes = 18000 bytes > 10000.
  auto join = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                         Scan({"x", "y"}, "x", 5000),
                         Scan({"x", "z"}, "x", 1000), nullptr);
  join->key_vars = {"x"};
  auto diags = VerifyPlan(*join, profile);
  EXPECT_EQ(CountRule(diags, "BC001", Severity::kWarn), 1);

  // Under the threshold: 50 rows x 2 vars x 9 bytes = 900 bytes.
  auto small = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                          Scan({"x", "y"}, "x", 5000),
                          Scan({"x", "z"}, "x", 50), nullptr);
  small->key_vars = {"x"};
  EXPECT_EQ(CountRule(VerifyPlan(*small, profile), "BC001", Severity::kWarn),
            0);
}

TEST(PlanVerifierTest, Bc001SkipsUnestimatedPlansAndNonBroadcastEngines) {
  EngineProfile profile{"test"};
  profile.broadcast_threshold_bytes = 10000;
  auto unestimated = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                                Scan({"x", "y"}, "x", plan::kNoEstimate),
                                Scan({"x", "z"}, "x", plan::kNoEstimate),
                                nullptr);
  unestimated->key_vars = {"x"};
  EXPECT_TRUE(VerifyPlan(*unestimated, profile).empty());

  // threshold 0 = the engine never broadcasts; the rule does not apply.
  auto join = MakeBinary(NodeKind::kBroadcastJoin, "on ?x",
                         Scan({"x", "y"}, "x", 5000),
                         Scan({"x", "z"}, "x", 1000), nullptr);
  join->key_vars = {"x"};
  EXPECT_TRUE(VerifyPlan(*join, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, St001ErrorsOnLocalStarMatchWithoutStarLayout) {
  auto star = MakeScan(NodeKind::kLocalStarMatch, AccessPath::kSubjectStar,
                       "?x star", 10, nullptr);
  star->out_vars = {"x", "y"};
  star->subject_var = "x";
  auto diags = VerifyPlan(*star, EngineProfile{"test"});
  EXPECT_EQ(CountRule(diags, "ST001", Severity::kError), 1);

  EngineProfile star_local{"test"};
  star_local.star_local_layout = true;
  star->subject_var = "x";
  EXPECT_TRUE(VerifyPlan(*star, star_local).empty());
}

TEST(PlanVerifierTest, St001InfoOnShuffledStarOverSubjectPartitioning) {
  EngineProfile profile{"test"};
  profile.subject_partitioned = true;
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?x",
                         Scan({"x", "y"}, "x"), Scan({"x", "z"}, "x"),
                         nullptr);
  join->key_vars = {"x"};
  auto diags = VerifyPlan(*join, profile);
  EXPECT_EQ(CountRule(diags, "ST001", Severity::kInfo), 1);

  // A co-partitioned join already exploits the placement: no finding.
  join->partition_local = true;
  EXPECT_TRUE(VerifyPlan(*join, profile).empty());

  // Joining different subjects (a chain) is not a star: no finding.
  auto chain = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?y",
                          Scan({"x", "y"}, "x"), Scan({"y", "z"}, "y"),
                          nullptr);
  chain->key_vars = {"y"};
  EXPECT_EQ(CountRule(VerifyPlan(*chain, profile), "ST001", Severity::kInfo),
            0);
}

TEST(PlanVerifierTest, Vp001WarnsOnUnboundedPredicateScanOverVp) {
  EngineProfile profile{"test"};
  profile.vertical_partitioned = true;
  auto scan = Scan({"s", "p", "o"}, "s", 100, AccessPath::kFullScan);
  auto diags = VerifyPlan(*scan, profile);
  EXPECT_EQ(CountRule(diags, "VP001", Severity::kWarn), 1);

  // Bound predicate reads one VP table: fine.
  auto vp = Scan({"s", "o"}, "s", 100, AccessPath::kVpTable);
  EXPECT_TRUE(VerifyPlan(*vp, profile).empty());
  // Engines with a single triple relation full-scan by design: fine.
  auto full = Scan({"s", "p", "o"}, "s", 100, AccessPath::kFullScan);
  EXPECT_TRUE(VerifyPlan(*full, EngineProfile{"test"}).empty());
}

TEST(PlanVerifierTest, VerifyForExecutionFailsOnlyOnErrors) {
  auto join = MakeBinary(NodeKind::kPartitionedHashJoin, "on ?q",
                         Scan({"a"}, "a"), Scan({"b"}, "b"), nullptr);
  join->key_vars = {"q"};
  Status bad = plan::VerifyForExecution(*join, EngineProfile{"test"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("SC001"), std::string::npos);

  // Warnings alone never block execution.
  auto cross = MakeBinary(NodeKind::kCartesianProduct, "merge",
                          Scan({"a"}, "a"), Scan({"b"}, "b"), nullptr);
  EXPECT_TRUE(plan::VerifyForExecution(*cross, EngineProfile{"test"}).ok());
}

// ---------------------------------------------------------------------------
// Engine-wide checks: the plans behind the golden EXPLAINs must verify with
// zero errors, both through VerifyPlan and under debug-check execution.

ClusterConfig SmallCluster() {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  return cfg;
}

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

std::vector<std::pair<std::string, std::string>> ShapeQueries() {
  return {
      {"star", rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3)},
      {"chain", rdf::LubmShapeQuery(rdf::QueryShape::kLinear, 3)},
      {"snowflake", rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake)},
  };
}

TEST(PlanVerifierEnginesTest, AllGoldenPlansLintWithoutErrors) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& [shape, text] : ShapeQueries()) {
      auto query = sparql::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << shape;
      auto root = engine->PlanBgp(query->where.bgp);
      ASSERT_TRUE(root.ok()) << factory.name << "/" << shape;
      auto findings = VerifyPlan(**root, engine->VerifyProfile());
      EXPECT_FALSE(plan::HasError(findings))
          << factory.name << "/" << shape << ":\n"
          << plan::FormatDiagnostics(findings);
    }
  }
}

TEST(PlanVerifierEnginesTest, DebugCheckModeExecutesAllShapes) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    engine->set_debug_check_plans(true);
    for (const auto& [shape, text] : ShapeQueries()) {
      auto parsed = sparql::ParseQuery(text);
      ASSERT_TRUE(parsed.ok()) << shape;
      auto result = engine->Execute(*parsed);
      EXPECT_TRUE(result.ok()) << factory.name << "/" << shape << ": "
                               << result.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Dataflow-lint tiers over the full corpus (star/linear/snowflake/complex):
// the query analyzer and the lineage analyzer must both be ERROR-free for
// every engine variant, and their output must not depend on which context
// ran the query.

TEST(DataflowLintEnginesTest, QueryAnalyzerErrorFreeOverCorpus) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& [shape, text] : rdf::LubmQueryMix()) {
      auto query = sparql::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << rdf::QueryShapeName(shape);
      auto findings = engine->AnalyzeParsedQuery(*query);
      EXPECT_FALSE(plan::HasError(findings))
          << factory.name << "/" << rdf::QueryShapeName(shape) << ":\n"
          << plan::FormatDiagnostics(findings);
    }
  }
}

TEST(DataflowLintEnginesTest, LineageAnalyzerErrorFreeOverCorpus) {
  for (const auto& factory : AllEngineVariantFactories()) {
    SparkContext sc(SmallCluster());
    auto engine = factory.make(&sc);
    ASSERT_TRUE(engine->Load(Dataset()).ok()) << factory.name;
    for (const auto& [shape, text] : rdf::LubmQueryMix()) {
      auto query = sparql::ParseQuery(text);
      ASSERT_TRUE(query.ok()) << rdf::QueryShapeName(shape);
      spark::LineageGraph graph;
      auto analyzed = engine->ExecuteAnalyzed(*query, &graph);
      ASSERT_TRUE(analyzed.ok())
          << factory.name << "/" << rdf::QueryShapeName(shape) << ": "
          << analyzed.status().ToString();
      EXPECT_FALSE(plan::HasError(graph.Analyze()))
          << factory.name << "/" << rdf::QueryShapeName(shape) << ":\n"
          << plan::FormatDiagnostics(graph.Analyze());
    }
  }
}

TEST(DataflowLintEnginesTest, LineageCaptureDeterministicAcrossContexts) {
  // Node ids are assigned on the driver during plan build/execution, so two
  // fresh contexts running the same query produce byte-identical DOT — the
  // determinism dataflow_lint's CI diff relies on.
  auto query =
      sparql::ParseQuery(rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
  ASSERT_TRUE(query.ok());
  auto capture = [&](int threads) {
    ClusterConfig cfg = SmallCluster();
    cfg.executor_threads = threads;
    SparkContext sc(cfg);
    SparqlgxEngine engine(&sc);
    EXPECT_TRUE(engine.Load(Dataset()).ok());
    spark::LineageGraph graph;
    auto analyzed = engine.ExecuteAnalyzed(*query, &graph);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    return graph.ToDot();
  };
  std::string serial = capture(0);
  EXPECT_EQ(serial, capture(0));
  EXPECT_EQ(serial, capture(3));
}

TEST(DataflowLintEnginesTest, QueryGateRejectsErrorQueriesBeforeExecution) {
  SparkContext sc(SmallCluster());
  S2rdfEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  engine.set_debug_check_queries(true);

  auto bad = sparql::ParseQuery(
      "SELECT ?ghost WHERE { ?s <http://p> ?o }");
  ASSERT_TRUE(bad.ok());
  auto rejected = engine.Execute(*bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("QA001"), std::string::npos);

  // WARN/INFO-level findings must not block execution.
  auto good = sparql::ParseQuery(
      rdf::LubmShapeQuery(rdf::QueryShape::kStar, 3));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(engine.Execute(*good).ok());

  // Gate off: the same query executes (the ghost column is simply unbound).
  engine.set_debug_check_queries(false);
  EXPECT_TRUE(engine.Execute(*bad).ok());
}

TEST(DataflowLintEnginesTest, RaceGatePassesCleanQueriesAndDefersToOwner) {
  SparkContext sc(SmallCluster());
  SparqlgxEngine engine(&sc);
  ASSERT_TRUE(engine.Load(Dataset()).ok());
  engine.set_debug_check_races(true);
  auto query =
      sparql::ParseQuery(rdf::LubmShapeQuery(rdf::QueryShape::kSnowflake));
  ASSERT_TRUE(query.ok());

  // No outer window: Execute owns one for the run, finds nothing on a
  // clean query, and closes it again.
  EXPECT_TRUE(engine.Execute(*query).ok());
  EXPECT_FALSE(spark::hb::Enabled());

  // Outer window (a lint tool, the serving layer): the gate defers — the
  // owner's window stays open and keeps the run's accesses.
  spark::hb::ScopedRaceCheck outer(/*active=*/true);
  ASSERT_TRUE(outer.owner());
  EXPECT_TRUE(engine.Execute(*query).ok());
  EXPECT_TRUE(spark::hb::Enabled());
  EXPECT_GT(spark::hb::Recorder::Get().EventCountForTest(), 0u);
  EXPECT_TRUE(outer.Finish().empty());
}

TEST(PlanVerifierEnginesTest, DebugCheckRejectsBrokenPlansBeforeExecution) {
  // VerifyForExecution is what EvaluateBgp consults in debug-check mode;
  // an ERROR-level finding must map to kInvalidArgument before any Spark
  // state is touched.
  auto star = MakeScan(NodeKind::kLocalStarMatch, AccessPath::kSubjectStar,
                       "?x star", 10, nullptr);
  star->subject_var = "x";
  star->out_vars = {"x"};
  EngineProfile no_star_layout{"S2X"};
  Status status = plan::VerifyForExecution(*star, no_star_layout);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("ST001"), std::string::npos);
}

}  // namespace
}  // namespace rdfspark::systems
