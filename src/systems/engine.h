#ifndef RDFSPARK_SYSTEMS_ENGINE_H_
#define RDFSPARK_SYSTEMS_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/store.h"
#include "spark/context.h"
#include "spark/lineage.h"
#include "sparql/analysis.h"
#include "sparql/ast.h"
#include "sparql/binding.h"
#include "systems/plan/plan.h"
#include "systems/plan/resource.h"
#include "systems/plan/verifier.h"

namespace rdfspark::systems {

/// Sound output cap of one triple-pattern scan, from dataset statistics:
/// the scan cannot yield more rows than the base relation it reads (the
/// predicate's VP table, or the whole triple relation for a predicate
/// variable), tightened by the predicate's max subject/object degree when
/// the pattern binds that position. Engines annotate
/// PlanNode::max_cardinality with this so Tier D envelopes stay bounded
/// even where selectivity estimates under-shoot.
uint64_t PatternScanBound(const rdf::Dictionary& dict,
                          const rdf::DatasetStatistics& stats,
                          const sparql::TriplePattern& tp);

/// Sound output cap of a same-subject star match over `patterns`: rows =
/// sum over subjects of the product of per-pattern multiplicities, bounded
/// by min over i of bound(p_i) x prod over j != i of max_subject_degree(p_j)
/// (functional predicates contribute factor 1, so FK-style stars stay near
/// the smallest pattern's bound).
uint64_t StarScanBound(const rdf::Dictionary& dict,
                       const rdf::DatasetStatistics& stats,
                       const std::vector<sparql::TriplePattern>& patterns);

/// The Spark data abstractions of Figure 1 / Table I.
enum class SparkAbstraction {
  kRdd,
  kDataFrames,
  kSparkSql,
  kGraphX,
  kGraphFrames,
};

const char* SparkAbstractionName(SparkAbstraction a);

/// The data-model dimension of Figure 1 / Table I.
enum class DataModel { kTriple, kGraph };

/// SPARQL fragment supported (Table II): plain basic graph patterns, or
/// BGP plus further operators (FILTER, OPTIONAL, UNION, modifiers).
enum class SparqlFragment { kBgp, kBgpPlus };

const char* SparqlFragmentName(SparqlFragment f);

/// Self-description of a system. Tables I and II and Figure 1 are generated
/// from these traits, so the taxonomy is program output rather than prose.
struct EngineTraits {
  std::string name;
  std::string citation;  // e.g. "[7] Cure et al., HAQWA, ISWC P&D 2015"
  DataModel data_model = DataModel::kTriple;
  std::vector<SparkAbstraction> abstractions;
  std::string query_processing;  // Table II column "Query Processing"
  bool has_optimization = false;
  std::string optimization_note;
  std::string partitioning;  // Table II column "Partitioning"
  SparqlFragment fragment = SparqlFragment::kBgp;
  std::string contribution;  // the System Contribution dimension (§III)
};

/// What Load() did: input size and storage blow-up, reported by the
/// partitioning assessment benchmark. Callers that want Load's wall time
/// time the call themselves.
struct LoadStats {
  uint64_t input_triples = 0;
  /// Stored records incl. replication / ExtVP sub-tables / indexes.
  uint64_t stored_records = 0;
  uint64_t stored_bytes = 0;
};

/// Common interface of the nine reproduced systems. An engine is bound to a
/// SparkContext (the simulated cluster) and loads a dataset once; queries
/// produce binding tables over the dataset's dictionary so results can be
/// cross-checked against the reference evaluator.
///
/// Every system takes the same path (the paper's Table II): parse the SPARQL
/// once with sparql::ParseQuery, compile the whole query pattern to one plan
/// in the shared physical algebra, then run the plan. The query surface is
/// those stages on the parsed query; callers reuse one parsed query (and
/// one plan) across them:
///
///   AnalyzeParsedQuery   Tier A query lint (pure)
///   PlanBgp / PlanQuery  one BGP's plan / the query's one plan (pure;
///                        EXPLAIN renders it)
///   AnalyzePlanResources Tier D byte envelope of a plan (pure)
///   ExecutePlanned       run a plan, then the driver-side tail
///   ExecuteAnalyzed      run with per-operator actuals (EXPLAIN ANALYZE)
///                        and, optionally, the RDD lineage snapshot
///   Execute              PlanQuery + ExecutePlanned, inside the gates
///   ExecuteText          ParseQuery + Execute
///
/// Subclasses provide PlanBgp() — their documented planning strategy — and
/// the shared PlanExecutor runs PlanQuery's plan; aggregation and solution
/// modifiers run driver-side after it, as the surveyed systems do.
class BgpEngineBase {
 public:
  virtual ~BgpEngineBase() = default;

  virtual const EngineTraits& traits() const = 0;

  /// Ingests the dataset, building the engine's partitioning and index
  /// structures. `store` must outlive the engine.
  virtual Result<LoadStats> Load(const rdf::TripleStore& store) = 0;

  /// Executes a parsed query: PlanQuery, then ExecutePlanned, inside the
  /// Tier A and Tier C gates when they are on.
  Result<sparql::BindingTable> Execute(const sparql::Query& query);

  /// Parses and executes SPARQL text.
  Result<sparql::BindingTable> ExecuteText(std::string_view text);

  /// Tier A of the dataflow lint: query-level findings (QA rules, see
  /// sparql/analysis.h), with this engine's storage layout feeding the
  /// layout-sensitive rules. Pure: nothing is planned or executed. The
  /// admission gate inside Execute runs the same analysis.
  std::vector<plan::Diagnostic> AnalyzeParsedQuery(
      const sparql::Query& query) const;

  /// Builds this system's physical plan for one basic graph pattern.
  /// Planning must be pure: no Spark actions, no metrics charged — the
  /// same call backs execution and EXPLAIN.
  virtual Result<plan::PlanPtr> PlanBgp(
      const std::vector<sparql::TriplePattern>& bgp) = 0;

  /// The one plan of a SELECT or ASK query: PlanBgp's tree, which a group
  /// wraps in driver-side nodes (a Join over a Union per UNION block, a
  /// LeftJoin per OPTIONAL, a Filter per FILTER). CONSTRUCT/DESCRIBE return
  /// InvalidArgument; engines whose fragment is kBgp return Unsupported for
  /// FILTER/OPTIONAL/UNION or aggregates. When debug_check_plans() is on,
  /// the plan is verified here, once, instead of on every cached execution.
  Result<plan::PlanPtr> PlanQuery(const sparql::Query& query);

  /// Tier D of the dataflow lint: the static byte envelope of `root`, a
  /// plan for `query`, against this engine's simulated cluster (see
  /// plan/resource.h). Pure, like EXPLAIN, and byte-identical regardless of
  /// executor threading — what the serving admission gate runs on cached
  /// plans.
  plan::ResourceAnalysis AnalyzePlanResources(
      const sparql::Query& query, const plan::PlanNode& root) const;

  /// Executes a plan previously built by PlanQuery for `query`, then runs
  /// the driver-side tail (ASK collapse, aggregation and solution
  /// modifiers). With ReusablePlans() true the same plan may be executed
  /// repeatedly and from concurrent threads: execution reads the plan tree
  /// and charges metrics but never mutates the nodes.
  Result<sparql::BindingTable> ExecutePlanned(const sparql::Query& query,
                                              const plan::PlanNode& root);

  /// Plans and executes `query`'s pattern (PlanQuery's plan, without its
  /// form and fragment checks) with actuals collection, returning the
  /// analyzed plan: every node carries an OpStats
  /// (node->actuals) with its runtime counters and output rows
  /// (plan::ExplainAnalyze renders it). Charges metrics like a normal
  /// execution. When `lineage` is given it receives the snapshot of the
  /// RDD lineage DAG the same run built (Tier B); engines whose payloads
  /// are not RDD-backed (DataFrames, driver-side rows) yield an empty graph.
  Result<plan::PlanPtr> ExecuteAnalyzed(const sparql::Query& query,
                                        spark::LineageGraph* lineage = nullptr);

  /// Whether plans built by PlanQuery survive execution and may be re-run
  /// (the plan-cache contract). S2X overrides to false: its plans consume
  /// shared match state on first execution.
  virtual bool ReusablePlans() const { return true; }

  /// The storage/layout facts the static verifier checks plans against
  /// (Table II's partitioning column as booleans + broadcast threshold).
  /// The base profile claims nothing, so unannotated engines verify
  /// vacuously; each engine overrides with its documented layout.
  virtual plan::EngineProfile VerifyProfile() const;

  // Behaviour gates. All default to off; callers (the shell, the tools, the
  // serving layer, tests) turn them on explicitly.

  /// Debug-check mode: when enabled, every plan is verified before the
  /// executor touches Spark state, and any ERROR-level finding fails the
  /// query with an InvalidArgument status.
  void set_debug_check_plans(bool enabled) { debug_check_plans_ = enabled; }
  bool debug_check_plans() const { return debug_check_plans_; }

  /// Query-admission gate: when enabled, Execute runs the query analyzer
  /// (Tier A) first and any ERROR-level QA finding fails the query with an
  /// InvalidArgument status before planning or execution.
  void set_debug_check_queries(bool enabled) { debug_check_queries_ = enabled; }
  bool debug_check_queries() const { return debug_check_queries_; }

  /// Tier C gate: when enabled, Execute runs inside a happens-before
  /// recorder window (see spark/hb.h) and any ERROR-level RC/DT finding
  /// fails the query with an InvalidArgument status after execution. Owner
  /// semantics: when an outer window is already active (the serving layer
  /// or a lint tool holds the recorder), the per-Execute gate defers to the
  /// owner instead of resetting shared state under it.
  void set_debug_check_races(bool enabled) { debug_check_races_ = enabled; }
  bool debug_check_races() const { return debug_check_races_; }

  spark::SparkContext* context() const { return sc_; }

 protected:
  explicit BgpEngineBase(spark::SparkContext* sc) : sc_(sc) {}

  /// Dictionary of the loaded dataset (for filters/modifiers).
  virtual const rdf::Dictionary& dictionary() const = 0;

  spark::SparkContext* sc_;

 private:
  /// One group's plan, the part PlanQuery and ExecuteAnalyzed share.
  Result<plan::PlanPtr> PlanGroup(const sparql::GroupPattern& group);

  /// ExecutePlanned's driver-side tail: ASK collapse, then aggregation and
  /// solution modifiers.
  Result<sparql::BindingTable> FinishQuery(const sparql::Query& query,
                                           sparql::BindingTable table) const;

  /// The QueryAnalysisOptions this engine's storage layout implies.
  sparql::QueryAnalysisOptions AnalysisOptions() const;

  bool debug_check_plans_ = false;
  bool debug_check_queries_ = false;
  bool debug_check_races_ = false;
};

/// All nine engines, constructed against `sc`. Order matches Table II rows.
/// Callers own the engines; each needs Load() before use.
std::vector<std::unique_ptr<BgpEngineBase>> MakeAllEngines(
    spark::SparkContext* sc);

/// One constructible engine variant: the nine Table II systems with the
/// Hybrid engine expanded into its four studied modes — the 12 columns the
/// whole-matrix tools (dataflow_lint, query_profile), the golden tests and
/// the serving layer all iterate over. Names are identifier-safe ('-' in
/// Hybrid mode names becomes '_').
struct EngineVariantFactory {
  std::string name;
  std::function<std::unique_ptr<BgpEngineBase>(spark::SparkContext*)> make;
};

/// The canonical 12-variant list, in Table II row order.
std::vector<EngineVariantFactory> AllEngineVariantFactories();

/// Runs a CONSTRUCT query through `engine` (distributed pattern matching,
/// driver-side template instantiation against `store`'s dictionary).
Result<std::vector<rdf::Triple>> ExecuteConstruct(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query);

/// Runs a DESCRIBE query through `engine`: the pattern (if any) resolves
/// variable targets distributedly; descriptions come from `store`.
Result<std::vector<rdf::Triple>> ExecuteDescribe(
    BgpEngineBase* engine, const rdf::TripleStore& store,
    const sparql::Query& query);

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_ENGINE_H_
