#include "systems/plan/plan.h"

#include <optional>

namespace rdfspark::systems::plan {

const char* NodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::kPatternScan:
      return "PatternScan";
    case NodeKind::kPartitionedHashJoin:
      return "PartitionedHashJoin";
    case NodeKind::kBroadcastJoin:
      return "BroadcastJoin";
    case NodeKind::kCartesianProduct:
      return "CartesianProduct";
    case NodeKind::kLocalStarMatch:
      return "LocalStarMatch";
    case NodeKind::kFilter:
      return "Filter";
    case NodeKind::kProject:
      return "Project";
    case NodeKind::kJoin:
      return "Join";
    case NodeKind::kUnion:
      return "Union";
    case NodeKind::kLeftJoin:
      return "LeftJoin";
  }
  return "unknown";
}

const char* AccessPathName(AccessPath a) {
  switch (a) {
    case AccessPath::kNone:
      return "";
    case AccessPath::kFullScan:
      return "full-scan";
    case AccessPath::kVpTable:
      return "vp";
    case AccessPath::kExtVpTable:
      return "extvp";
    case AccessPath::kSubjectStar:
      return "subject-star";
    case AccessPath::kGraphTraversal:
      return "graph";
    case AccessPath::kClassIndex:
      return "class-index";
    case AccessPath::kReplica:
      return "replica";
  }
  return "";
}

PlanPtr MakeScan(NodeKind kind, AccessPath access, std::string detail,
                 uint64_t est, ExecFn exec) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->access_path = access;
  node->detail = std::move(detail);
  node->est_cardinality = est;
  node->exec = std::move(exec);
  return node;
}

PlanPtr MakeUnary(NodeKind kind, std::string detail, PlanPtr child,
                  ExecFn exec) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->detail = std::move(detail);
  node->children.push_back(std::move(child));
  node->exec = std::move(exec);
  return node;
}

PlanPtr MakeBinary(NodeKind kind, std::string detail, PlanPtr left,
                   PlanPtr right, ExecFn exec) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->detail = std::move(detail);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->exec = std::move(exec);
  return node;
}

PlanPtr ConstantResultPlan(sparql::BindingTable table, std::string detail) {
  auto node = std::make_unique<PlanNode>();
  node->kind = NodeKind::kProject;
  node->detail = std::move(detail);
  node->est_cardinality = table.num_rows();
  node->max_cardinality = table.num_rows();  // The answer is the bound.
  node->out_vars = table.vars();
  auto shared = std::make_shared<sparql::BindingTable>(std::move(table));
  node->exec = [shared](std::vector<PlanPayload>) -> Result<PlanPayload> {
    return PlanPayload(*shared);
  };
  return node;
}

namespace {

void RenderNode(const PlanNode& node, int depth, const NodeLineFinisher& finish,
                std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(NodeKindName(node.kind));
  std::string bracket = AccessPathName(node.access_path);
  if (!node.detail.empty()) {
    if (!bracket.empty()) bracket += " ";
    bracket += node.detail;
  }
  if (!bracket.empty()) {
    out->append(" [");
    out->append(bracket);
    out->append("]");
  }
  out->append(" (est=");
  out->append(node.est_cardinality == kNoEstimate
                  ? std::string("?")
                  : std::to_string(node.est_cardinality));
  finish(node, out);
  out->append("\n");
  for (const auto& child : node.children) {
    RenderNode(*child, depth + 1, finish, out);
  }
}

/// Rows in one element of a batch RDD partition.
uint64_t BatchRows(const sparql::IdTable& batch) { return batch.size(); }
uint64_t BatchRows(const KeyedBatch& batch) { return batch.rows.size(); }
uint64_t BatchRows(const std::pair<int64_t, sparql::IdTable>& vertex) {
  return vertex.second.size();
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// Output rows of a retained payload; nullopt (rendered "act=?") for a
/// descriptive node's monostate and for unbound RDD/DataFrame handles. An
/// RDD is counted from its cached partitions only — every partition the
/// run needed is cached by the time the root has collected, and reading
/// them charges nothing.
std::optional<uint64_t> PayloadRows(const PlanPayload& payload) {
  using Rows = std::optional<uint64_t>;
  return std::visit(
      Overloaded{
          [](std::monostate) -> Rows { return std::nullopt; },
          [](const sparql::BindingTable& table) -> Rows {
            return table.num_rows();
          },
          [](const sparql::IdTable& rows) -> Rows { return rows.size(); },
          [](const spark::sql::DataFrame& df) -> Rows {
            if (!df.valid()) return std::nullopt;
            return df.NumRows();
          },
          []<typename T>(const spark::Rdd<T>& rdd) -> Rows {
            if (!rdd.valid()) return std::nullopt;
            const auto& node = rdd.node();
            uint64_t total = 0;
            for (int p = 0; p < node->num_partitions(); ++p) {
              if (!node->IsPartitionCached(p)) continue;
              auto part = node->GetPartition(p);
              for (const T& batch : *part) total += BatchRows(batch);
            }
            return total;
          }},
      payload);
}

/// The lineage node behind an RDD payload; null for every other payload.
std::shared_ptr<spark::RddNodeBase> PayloadLineage(
    const PlanPayload& payload) {
  using Node = std::shared_ptr<spark::RddNodeBase>;
  return std::visit(
      Overloaded{[](const auto&) -> Node { return nullptr; },
                 []<typename T>(const spark::Rdd<T>& rdd) -> Node {
                   return rdd.node();
                 }},
      payload);
}

}  // namespace

std::string RenderPlan(const PlanNode& root, const NodeLineFinisher& finish) {
  std::string out;
  RenderNode(root, 0, finish, &out);
  return out;
}

std::string Explain(const PlanNode& root) {
  return RenderPlan(root, [](const PlanNode&, std::string* out) {
    out->append(")");
  });
}

Result<PlanPayload> PlanExecutor::RunNode(const PlanNode& node) {
  std::vector<PlanPayload> inputs;
  inputs.reserve(node.children.size());
  for (const auto& child : node.children) {
    RDFSPARK_ASSIGN_OR_RETURN(PlanPayload payload, RunNode(*child));
    inputs.push_back(std::move(payload));
  }
  std::shared_ptr<spark::OpStats> stats;
  if (collect_actuals_) {
    stats = std::make_shared<spark::OpStats>();
    node.actuals = stats;
  }
  Result<PlanPayload> out = PlanPayload{};
  {
    spark::OpScopeGuard scope(stats);
    if (node.exec) out = node.exec(std::move(inputs));
  }
  if (collect_actuals_ && out.ok()) analyzed_.emplace_back(&node, *out);
  return out;
}

Result<sparql::BindingTable> PlanExecutor::Run(const PlanNode& root) {
  analyzed_.clear();
  lineage_roots_.clear();
  RDFSPARK_ASSIGN_OR_RETURN(PlanPayload out, RunNode(root));
  auto* table = std::get_if<sparql::BindingTable>(&out);
  if (table == nullptr) {
    return Status::Internal("plan root did not produce a binding table");
  }
  // Count rows only now: lazy payloads (RDDs) have materialized everything
  // they ever will by the time the root collected, so cached partition
  // sizes are the operator's true output cardinality.
  for (auto& [node, payload] : analyzed_) {
    if (auto rows = PayloadRows(payload)) {
      node->actuals->rows_out = *rows;
      node->actuals->rows_known = true;
    }
    // Harvest RDD-backed payloads for the lineage analyzer before the
    // payloads are released; the shared_ptr keeps the DAG alive.
    if (auto lineage = PayloadLineage(payload)) {
      bool seen = false;
      for (const auto& existing : lineage_roots_) {
        seen = seen || existing->id() == lineage->id();
      }
      if (!seen) lineage_roots_.push_back(std::move(lineage));
    }
  }
  analyzed_.clear();
  return std::move(*table);
}

}  // namespace rdfspark::systems::plan
