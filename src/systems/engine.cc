#include "systems/engine.h"

#include <algorithm>
#include <limits>

#include "spark/hb.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "sparql/serialize.h"
#include "systems/graphframes_engine.h"
#include "systems/graphx_sm.h"
#include "systems/haqwa.h"
#include "systems/hybrid.h"
#include "systems/s2rdf.h"
#include "systems/s2x.h"
#include "systems/sparkql.h"
#include "systems/sparkrdf.h"
#include "systems/sparqlgx.h"

namespace rdfspark::systems {

const char* SparkAbstractionName(SparkAbstraction a) {
  switch (a) {
    case SparkAbstraction::kRdd:
      return "RDD";
    case SparkAbstraction::kDataFrames:
      return "DataFrames";
    case SparkAbstraction::kSparkSql:
      return "Spark SQL";
    case SparkAbstraction::kGraphX:
      return "GraphX";
    case SparkAbstraction::kGraphFrames:
      return "GraphFrames";
  }
  return "unknown";
}

const char* SparqlFragmentName(SparqlFragment f) {
  return f == SparqlFragment::kBgp ? "BGP" : "BGP+";
}

uint64_t PatternScanBound(const rdf::Dictionary& dict,
                          const rdf::DatasetStatistics& stats,
                          const sparql::TriplePattern& tp) {
  if (tp.p.is_variable()) return stats.num_triples;
  auto id = dict.Lookup(tp.p.term());
  if (!id.ok()) return 0;  // Predicate absent from the data: empty relation.
  auto count = stats.predicate_count.find(*id);
  uint64_t bound =
      count == stats.predicate_count.end() ? 0 : count->second;
  if (!tp.s.is_variable()) {
    auto deg = stats.predicate_max_subject_degree.find(*id);
    if (deg != stats.predicate_max_subject_degree.end()) {
      bound = std::min(bound, deg->second);
    }
  }
  if (!tp.o.is_variable()) {
    auto deg = stats.predicate_max_object_degree.find(*id);
    if (deg != stats.predicate_max_object_degree.end()) {
      bound = std::min(bound, deg->second);
    }
  }
  return bound;
}

uint64_t StarScanBound(const rdf::Dictionary& dict,
                       const rdf::DatasetStatistics& stats,
                       const std::vector<sparql::TriplePattern>& patterns) {
  if (patterns.empty()) return 1;
  // Per-pattern base bounds and per-subject multiplicities.
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> degrees;
  bounds.reserve(patterns.size());
  degrees.reserve(patterns.size());
  for (const auto& tp : patterns) {
    bounds.push_back(PatternScanBound(dict, stats, tp));
    uint64_t degree = stats.num_triples;  // Predicate variable: no cap.
    if (!tp.p.is_variable()) {
      auto id = dict.Lookup(tp.p.term());
      if (!id.ok()) {
        degree = 0;
      } else {
        auto it = stats.predicate_max_subject_degree.find(*id);
        degree = it == stats.predicate_max_subject_degree.end() ? 0
                                                                : it->second;
      }
    }
    degrees.push_back(degree);
  }
  constexpr uint64_t kCap = std::numeric_limits<uint64_t>::max();
  auto sat_mul = [](uint64_t a, uint64_t b) {
    if (a == 0 || b == 0) return uint64_t{0};
    return a > kCap / b ? kCap : a * b;
  };
  uint64_t best = kCap;
  for (size_t i = 0; i < patterns.size(); ++i) {
    uint64_t candidate = bounds[i];
    for (size_t j = 0; j < patterns.size(); ++j) {
      if (j != i) candidate = sat_mul(candidate, degrees[j]);
    }
    best = std::min(best, candidate);
  }
  return best;
}

Result<sparql::BindingTable> BgpEngineBase::ExecuteText(
    std::string_view text) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  return Execute(query);
}

sparql::QueryAnalysisOptions BgpEngineBase::AnalysisOptions() const {
  sparql::QueryAnalysisOptions options;
  options.vertical_partitioned = VerifyProfile().vertical_partitioned;
  return options;
}

std::vector<plan::Diagnostic> BgpEngineBase::AnalyzeParsedQuery(
    const sparql::Query& query) const {
  return sparql::AnalyzeQuery(query, AnalysisOptions());
}

plan::ResourceAnalysis BgpEngineBase::AnalyzePlanResources(
    const sparql::Query& query, const plan::PlanNode& root) const {
  plan::ResourceProfile profile =
      plan::ResourceProfile::FromCluster(sc_->config(), VerifyProfile());
  profile.sort_at_root = query.distinct || !query.order_by.empty();
  return plan::AnalyzeResources(root, profile);
}

namespace {

using TableOp = sparql::BindingTable (*)(const sparql::BindingTable&,
                                         const sparql::BindingTable&);

/// A driver-side operator over its two children's binding tables. Like the
/// reference evaluator's, it charges no simulated cost.
plan::ExecFn OnTables(TableOp op) {
  return [op](std::vector<plan::PlanPayload> in) -> Result<plan::PlanPayload> {
    return plan::PlanPayload(
        op(std::get<sparql::BindingTable>(std::move(in[0])),
           std::get<sparql::BindingTable>(std::move(in[1]))));
  };
}

}  // namespace

Result<plan::PlanPtr> BgpEngineBase::PlanGroup(
    const sparql::GroupPattern& group) {
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root, PlanBgp(group.bgp));
  for (const auto& alternatives : group.unions) {
    plan::PlanPtr united;
    for (const auto& alt : alternatives) {
      RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr planned, PlanGroup(alt));
      united = united == nullptr
                   ? std::move(planned)
                   : plan::MakeBinary(plan::NodeKind::kUnion, "driver",
                                      std::move(united), std::move(planned),
                                      OnTables(sparql::UnionTables));
    }
    if (united == nullptr) return Status::InvalidArgument("empty UNION");
    root = plan::MakeBinary(plan::NodeKind::kJoin, "driver", std::move(root),
                            std::move(united), OnTables(sparql::HashJoin));
  }
  for (const auto& opt : group.optionals) {
    RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr optional, PlanGroup(opt));
    root = plan::MakeBinary(plan::NodeKind::kLeftJoin, "driver",
                            std::move(root), std::move(optional),
                            OnTables(sparql::LeftJoin));
  }
  const rdf::Dictionary* dict = &dictionary();
  for (const std::shared_ptr<sparql::FilterExpr>& expr : group.filters) {
    // The node shares the expression: a cached plan outlives the query.
    root = plan::MakeUnary(
        plan::NodeKind::kFilter, "driver " + sparql::ToSparql(*expr),
        std::move(root),
        [expr, dict](std::vector<plan::PlanPayload> in)
            -> Result<plan::PlanPayload> {
          return plan::PlanPayload(sparql::ApplyFilter(
              std::get<sparql::BindingTable>(std::move(in[0])), *expr,
              *dict));
        });
  }
  return root;
}

Result<plan::PlanPtr> BgpEngineBase::PlanQuery(const sparql::Query& query) {
  if (query.form == sparql::QueryForm::kConstruct ||
      query.form == sparql::QueryForm::kDescribe) {
    return Status::InvalidArgument(
        "CONSTRUCT/DESCRIBE produce triples; use the ExecuteConstruct / "
        "ExecuteDescribe helpers");
  }
  if (traits().fragment == SparqlFragment::kBgp &&
      (!query.where.IsPlainBgp() || query.IsAggregate())) {
    return Status::Unsupported(
        traits().name +
        " supports the BGP fragment only (no FILTER/OPTIONAL/UNION/"
        "aggregates)");
  }
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root, PlanGroup(query.where));
  if (debug_check_plans_) {
    Status verified = plan::VerifyForExecution(*root, VerifyProfile());
    if (!verified.ok()) return verified;
  }
  return root;
}

Result<sparql::BindingTable> BgpEngineBase::ExecutePlanned(
    const sparql::Query& query, const plan::PlanNode& root) {
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                            plan::PlanExecutor(sc_).Run(root));
  return FinishQuery(query, std::move(table));
}

Result<plan::PlanPtr> BgpEngineBase::ExecuteAnalyzed(
    const sparql::Query& query, spark::LineageGraph* lineage) {
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root, PlanGroup(query.where));
  plan::PlanExecutor executor(sc_, /*collect_actuals=*/true);
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table, executor.Run(*root));
  (void)table;  // Results are discarded; the annotated plan is the output.
  if (lineage != nullptr) {
    std::vector<const spark::RddNodeBase*> roots;
    roots.reserve(executor.lineage_roots().size());
    for (const auto& node : executor.lineage_roots()) {
      roots.push_back(node.get());
    }
    *lineage = spark::LineageGraph::Capture(roots);
  }
  return root;
}

plan::EngineProfile BgpEngineBase::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits().name;
  return profile;
}

Result<sparql::BindingTable> BgpEngineBase::FinishQuery(
    const sparql::Query& query, sparql::BindingTable table) const {
  if (query.form == sparql::QueryForm::kAsk) {
    sparql::BindingTable out;
    if (table.num_rows() > 0) out.AddRow({});
    return out;
  }
  // Solution modifiers run "with the Spark API" driver-side, as the
  // surveyed systems implement them.
  return ApplyModifiers(query, std::move(table), dictionary());
}

Result<sparql::BindingTable> BgpEngineBase::Execute(
    const sparql::Query& query) {
  if (debug_check_queries_) {
    std::vector<plan::Diagnostic> errors =
        plan::ErrorsOnly(AnalyzeParsedQuery(query));
    if (!errors.empty()) {
      return Status::InvalidArgument("query analysis failed:\n" +
                                     plan::FormatDiagnostics(errors));
    }
  }
  RDFSPARK_ASSIGN_OR_RETURN(plan::PlanPtr root, PlanQuery(query));
  // Tier C gate: record every shared-object access this execution makes
  // and fail on unordered conflicting pairs. When an outer window is active
  // (serving layer, lint tool), owner() is false and the gate defers to it.
  spark::hb::ScopedRaceCheck race_check(debug_check_races_);
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                            ExecutePlanned(query, *root));
  if (race_check.owner()) {
    std::vector<plan::Diagnostic> findings = race_check.Finish();
    if (plan::HasError(findings)) {
      return Status::InvalidArgument("race check failed:\n" +
                                     plan::FormatDiagnostics(findings));
    }
  }
  return table;
}

Result<std::vector<rdf::Triple>> ExecuteConstruct(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query) {
  if (query.form != sparql::QueryForm::kConstruct) {
    return Status::InvalidArgument("not a CONSTRUCT query");
  }
  sparql::Query select = query;
  select.form = sparql::QueryForm::kSelect;
  select.construct_template.clear();
  RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                            engine->Execute(select));
  return sparql::InstantiateTemplate(query.construct_template, table,
                                     store.dictionary());
}

Result<std::vector<rdf::Triple>> ExecuteDescribe(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query) {
  if (query.form != sparql::QueryForm::kDescribe) {
    return Status::InvalidArgument("not a DESCRIBE query");
  }
  std::vector<rdf::TermId> resources;
  bool has_vars = false;
  for (const auto& target : query.describe_targets) {
    if (target.is_variable()) {
      has_vars = true;
    } else {
      auto id = store.dictionary().Lookup(target.term());
      if (id.ok()) resources.push_back(*id);
    }
  }
  if (has_vars) {
    sparql::Query select = query;
    select.form = sparql::QueryForm::kSelect;
    select.describe_targets.clear();
    RDFSPARK_ASSIGN_OR_RETURN(sparql::BindingTable table,
                              engine->Execute(select));
    for (const auto& target : query.describe_targets) {
      if (!target.is_variable()) continue;
      int idx = table.VarIndex(target.var());
      if (idx < 0) continue;
      for (const auto& row : table.rows()) {
        rdf::TermId id = row[static_cast<size_t>(idx)];
        if (id != sparql::kUnbound) resources.push_back(id);
      }
    }
  }
  return sparql::DescribeResources(resources, store);
}

std::vector<std::unique_ptr<BgpEngineBase>> MakeAllEngines(
    spark::SparkContext* sc) {
  std::vector<std::unique_ptr<BgpEngineBase>> engines;
  engines.push_back(std::make_unique<HaqwaEngine>(sc));       // [7]
  engines.push_back(std::make_unique<SparqlgxEngine>(sc));    // [13]
  engines.push_back(std::make_unique<S2rdfEngine>(sc));       // [24]
  engines.push_back(std::make_unique<HybridEngine>(sc));      // [21]
  engines.push_back(std::make_unique<S2xEngine>(sc));         // [23]
  engines.push_back(std::make_unique<GraphxSmEngine>(sc));    // [16]
  engines.push_back(std::make_unique<SparkqlEngine>(sc));     // [12]
  engines.push_back(std::make_unique<GraphFramesEngine>(sc));  // [4]
  engines.push_back(std::make_unique<SparkRdfEngine>(sc));    // [5]
  return engines;
}

std::vector<EngineVariantFactory> AllEngineVariantFactories() {
  using spark::SparkContext;
  std::vector<EngineVariantFactory> out;
  out.push_back({"HAQWA", [](SparkContext* sc) {
                   return std::make_unique<HaqwaEngine>(sc);
                 }});
  out.push_back({"SPARQLGX", [](SparkContext* sc) {
                   return std::make_unique<SparqlgxEngine>(sc);
                 }});
  out.push_back({"S2RDF", [](SparkContext* sc) {
                   return std::make_unique<S2rdfEngine>(sc);
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
  out.push_back({"SparkRDF", [](SparkContext* sc) {
                   return std::make_unique<SparkRdfEngine>(sc);
                 }});
  return out;
}

}  // namespace rdfspark::systems
