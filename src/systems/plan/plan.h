#ifndef RDFSPARK_SYSTEMS_PLAN_PLAN_H_
#define RDFSPARK_SYSTEMS_PLAN_PLAN_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "spark/context.h"
#include "spark/rdd.h"
#include "spark/sql/dataframe.h"
#include "sparql/binding.h"
#include "systems/batch.h"

namespace rdfspark::systems::plan {

/// Physical operators shared by all nine reproduced systems. Each engine's
/// planner maps its documented evaluation strategy onto this algebra so plan
/// shapes (Cartesian fallbacks, broadcast vs partitioned joins, local star
/// matching) become assertable program output instead of implicit code paths.
enum class NodeKind {
  kPatternScan,          // produce the matches of one triple pattern
  kPartitionedHashJoin,  // shuffle/co-partitioned equi-join
  kBroadcastJoin,        // small side replicated to every executor
  kCartesianProduct,     // no shared variable (or deliberate fallback)
  kLocalStarMatch,       // subject-star fragment matched within a partition
  kFilter,               // row-level predicate (driver- or executor-side)
  kProject,              // final projection / conversion to a BindingTable
  kJoin,                 // driver-side join of a group with a UNION block
  kUnion,                // driver-side concatenation of UNION alternatives
  kLeftJoin,             // driver-side OPTIONAL
};

const char* NodeKindName(NodeKind k);

/// How a PatternScan reaches its data (Table II's storage dimension).
enum class AccessPath {
  kNone,            // not a scan, or not applicable
  kFullScan,        // whole triple relation
  kVpTable,         // vertical-partitioning table of one predicate
  kExtVpTable,      // semi-join reduced ExtVP sub-table
  kSubjectStar,     // subject-hash fragment, matched locally
  kGraphTraversal,  // edge/vertex traversal over a graph abstraction
  kClassIndex,      // class-based index file (MESG CR/RC/CRC levels)
  kReplica,         // workload-aware replicated join result
};

const char* AccessPathName(AccessPath a);

/// est_cardinality value meaning "the planner has no estimate".
inline constexpr uint64_t kNoEstimate = std::numeric_limits<uint64_t>::max();

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

/// Intermediate results flowing between plan operators: the closed set of
/// representations the nine engines produce. Only the root is required to
/// produce a sparql::BindingTable; monostate is the payload of a
/// descriptive node (null exec). RDD payloads carry one batch per
/// partition: IdTable rows, subject-keyed batches, or per-vertex tables.
using PlanPayload =
    std::variant<std::monostate, sparql::BindingTable, sparql::IdTable,
                 spark::sql::DataFrame, spark::Rdd<sparql::IdTable>,
                 spark::Rdd<KeyedBatch>,
                 spark::Rdd<std::pair<int64_t, sparql::IdTable>>>;

/// Executes one operator given its children's payloads (post-order). A null
/// exec marks a descriptive node: monolithic back-ends (Spark SQL's Catalyst,
/// GraphFrames' motif matcher) run the whole tree in the root's exec, and the
/// inner nodes document the plan the back-end will follow.
using ExecFn = std::function<Result<PlanPayload>(std::vector<PlanPayload>)>;

/// One node of a physical plan: what the operator is (for EXPLAIN and the
/// plan-shape assertions) plus how to run it (for the shared executor).
///
/// The schema annotations (out_vars / key_vars / subject_var /
/// partition_local) feed the static verifier (verifier.h); they are not part
/// of the EXPLAIN text contract. out_vars lists the variables this node
/// itself binds (scans and constant-result leaves); a subtree's full output
/// schema is the union over the subtree. key_vars lists the variables the
/// operator consumes: equi-join keys, Filter predicate variables, Project
/// output columns. An empty key_vars means "no requirement declared", so
/// unannotated plans verify vacuously.
struct PlanNode {
  NodeKind kind = NodeKind::kProject;
  AccessPath access_path = AccessPath::kNone;
  std::string detail;                     // operator-specific annotation
  uint64_t est_cardinality = kNoEstimate; // planner's output-row estimate
  /// Planner's *sound* output upper bound, distinct from the selectivity
  /// estimate above: a scan over predicate p can never yield more rows than
  /// the p-relation holds, however selective the planner guesses it is.
  /// Engines annotate scans with the base-relation size; the Tier D
  /// resource analyzer (resource.h) prefers this cap over est_cardinality
  /// when deriving byte envelopes, which keeps envelopes sound even where
  /// estimates under-shoot. kNoEstimate = no bound known.
  uint64_t max_cardinality = kNoEstimate;
  std::vector<std::string> out_vars;      // variables bound by this node
  std::vector<std::string> key_vars;      // variables consumed by this node
  std::string subject_var;  // scan's subject variable (empty if constant)
  bool partition_local = false;  // join provably avoids a shuffle
  std::vector<PlanPtr> children;
  ExecFn exec;

  /// Runtime actuals of the last analyzed execution (EXPLAIN ANALYZE):
  /// attached by PlanExecutor when collect_actuals is on, null otherwise.
  /// Mutable because attaching observations does not change what the plan
  /// *is* — executors run `const PlanNode&` trees.
  mutable std::shared_ptr<spark::OpStats> actuals;
};

/// Builders (children evaluated left to right by the executor).
PlanPtr MakeScan(NodeKind kind, AccessPath access, std::string detail,
                 uint64_t est, ExecFn exec);
PlanPtr MakeUnary(NodeKind kind, std::string detail, PlanPtr child,
                  ExecFn exec);
PlanPtr MakeBinary(NodeKind kind, std::string detail, PlanPtr left,
                   PlanPtr right, ExecFn exec);

/// A leaf Project returning a fixed table — the planner proved the answer
/// (unit table for empty BGPs, empty table for impossible constants).
PlanPtr ConstantResultPlan(sparql::BindingTable table, std::string detail);

/// Deterministic indented plan tree. Format contract (see DESIGN.md):
///   <Kind> [<access> <detail>] (est=<n>|?)
/// with two-space indentation per level; the bracket is omitted when both
/// access path and detail are empty; est prints "?" for kNoEstimate.
std::string Explain(const PlanNode& root);

/// Appends the rest of one node's line after "(est=<n>|?"; the renderer
/// adds the newline.
using NodeLineFinisher = std::function<void(const PlanNode&, std::string*)>;

/// The one plan-tree renderer behind Explain and ExplainAnalyze (analyze.h):
/// writes each node as "<indent><Kind> [<access> <detail>] (est=<n>|?",
/// lets `finish` close the line, and recurses into the children.
std::string RenderPlan(const PlanNode& root, const NodeLineFinisher& finish);

/// Shared executor: post-order walk, each node's exec fed its children's
/// payloads; the root payload must be a sparql::BindingTable.
///
/// With `collect_actuals` on, the executor attaches a fresh OpStats to
/// every node, opens it as the operator scope around the node's exec (so
/// all substrate charges — including lazily deferred RDD computation, via
/// the scope captured at RddNode construction — attribute to the right
/// operator), retains each node's payload until the run completes, and
/// then fills rows_out from it (an RDD's cached partitions, read without
/// charging; a descriptive node's monostate stays unknown). Actuals are
/// sums of the same charge set regardless of executor threading, so they
/// are bit-identical between executor_threads=1 and N.
class PlanExecutor {
 public:
  explicit PlanExecutor(spark::SparkContext* sc, bool collect_actuals = false)
      : sc_(sc), collect_actuals_(collect_actuals) {}

  Result<sparql::BindingTable> Run(const PlanNode& root);

  /// RDD lineage nodes of the operators the last analyzed Run executed, in
  /// completion order, deduplicated (the lineage-tier analyzer snapshots a
  /// LineageGraph from these). Filled only with collect_actuals; shared
  /// ownership keeps the DAG alive after payloads are released.
  const std::vector<std::shared_ptr<spark::RddNodeBase>>& lineage_roots()
      const {
    return lineage_roots_;
  }

 private:
  Result<PlanPayload> RunNode(const PlanNode& node);

  spark::SparkContext* sc_;
  bool collect_actuals_;
  /// Nodes in completion order with their payload, kept alive so row
  /// counting after the run sees every operator's output.
  std::vector<std::pair<const PlanNode*, PlanPayload>> analyzed_;
  std::vector<std::shared_ptr<spark::RddNodeBase>> lineage_roots_;
};

}  // namespace rdfspark::systems::plan

#endif  // RDFSPARK_SYSTEMS_PLAN_PLAN_H_
