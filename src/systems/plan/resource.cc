#include "systems/plan/resource.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rdfspark::systems::plan {

namespace {

/// Saturating arithmetic over byte/row quantities. The top value doubles as
/// "unbounded": a bound that overflows uint64 (>= 18 exabytes) is as good as
/// no bound, and saturation keeps every fold monotone.
uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a == kUnboundedBytes || b == kUnboundedBytes) return kUnboundedBytes;
  return a > kUnboundedBytes - b ? kUnboundedBytes : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnboundedBytes || b == kUnboundedBytes) return kUnboundedBytes;
  return a > kUnboundedBytes / b ? kUnboundedBytes : a * b;
}

/// IdTable byte model for `rows` rows of `width` columns (see
/// sparql::IdTable::EstimatedByteSize): 8-byte cells, 16-byte batch header.
uint64_t TableBytes(uint64_t rows, uint64_t width) {
  if (rows == kUnboundedBytes) return kUnboundedBytes;
  return SatAdd(kEnvelopeBatchHeaderBytes,
                SatMul(rows, SatMul(width, kEnvelopeBytesPerCell)));
}

bool IsJoin(NodeKind k) {
  return k == NodeKind::kPartitionedHashJoin || k == NodeKind::kBroadcastJoin;
}

/// Operators that must hold an input (or their whole output) resident
/// before emitting anything — the shapes an unbounded input actually hurts.
bool IsBlocking(const PlanNode& node) {
  return IsJoin(node.kind) || node.kind == NodeKind::kCartesianProduct;
}

bool IsShuffleBarrier(const PlanNode& node) {
  return node.kind == NodeKind::kPartitionedHashJoin && !node.partition_local;
}

std::string FormatBytesValue(uint64_t bytes) {
  if (bytes == kUnboundedBytes) return "unbounded";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 "B", bytes);
  return buf;
}

/// The bottom-up envelope fold, mirroring the plan verifier's visitor shape
/// (verifier.cc) so findings carry identical path syntax.
class ResourceAnalyzer {
 public:
  explicit ResourceAnalyzer(const ResourceProfile& profile)
      : profile_(profile) {}

  struct SubtreeFacts {
    std::set<std::string> vars;  // union of out_vars: output schema
    uint64_t row_bound = kNoEstimate;
    int stage = 0;
    size_t env_index = 0;  // this node's slot in nodes_ (pre-order)
  };

  SubtreeFacts Visit(const PlanNode& node, const std::string& path,
                     bool blocking_above) {
    size_t env_index = nodes_.size();
    nodes_.emplace_back();  // pre-order slot, filled after children return

    bool child_blocking = blocking_above || IsBlocking(node);
    std::vector<SubtreeFacts> child_facts;
    child_facts.reserve(node.children.size());
    for (size_t i = 0; i < node.children.size(); ++i) {
      child_facts.push_back(Visit(*node.children[i],
                                  path + "." + std::to_string(i),
                                  child_blocking));
    }

    SubtreeFacts facts;
    facts.env_index = env_index;
    for (const auto& child : child_facts) {
      facts.vars.insert(child.vars.begin(), child.vars.end());
      facts.stage = std::max(facts.stage, child.stage);
    }
    facts.vars.insert(node.out_vars.begin(), node.out_vars.end());
    if (IsShuffleBarrier(node)) ++facts.stage;
    facts.row_bound = RowBound(node, child_facts);

    uint64_t width = std::max<uint64_t>(1, facts.vars.size());
    NodeEnvelope& env = nodes_[env_index];
    env.path = path;
    env.kind = node.kind;
    env.row_bound = facts.row_bound;
    env.width = width;
    env.output_bytes = facts.row_bound == kNoEstimate
                           ? kUnboundedBytes
                           : TableBytes(facts.row_bound, width);
    env.stage = facts.stage;
    AddWorkingSets(node, path, child_facts, &env);

    if (node.children.empty() && facts.row_bound == kNoEstimate &&
        blocking_above) {
      Report(Severity::kWarn, "RS003", node, path,
             "leaf with no cardinality bound feeds a blocking operator — "
             "its working set has no static byte envelope",
             "annotate the scan with its base-relation size "
             "(max_cardinality) so the envelope stays bounded");
    }
    return facts;
  }

  std::vector<NodeEnvelope> TakeNodes() { return std::move(nodes_); }
  std::vector<Diagnostic> TakeDiagnostics() { return std::move(diags_); }

 private:
  /// Sound output-row bound. Leaves prefer the planner's declared cap over
  /// its selectivity estimate; interior bounds are structural: equi-joins
  /// cannot exceed the input product, and on key-constrained inputs stay
  /// within fanout headroom of the larger side; Cartesian products and the
  /// driver-side Join are the product; a Union is the sum of its inputs; a
  /// LeftJoin keeps every left row, each extended by at most max(1, right)
  /// matches. An explicit max_cardinality tightens any derived bound.
  uint64_t RowBound(const PlanNode& node,
                    const std::vector<SubtreeFacts>& children) const {
    uint64_t derived;
    if (children.empty()) {
      derived = node.max_cardinality != kNoEstimate ? node.max_cardinality
                                                    : node.est_cardinality;
    } else if (children.size() == 1) {
      // Filter/Project/defensive unary joins: cannot grow the input.
      derived = children[0].row_bound;
    } else {
      derived = children[0].row_bound;
      for (size_t i = 1; i < children.size(); ++i) {
        uint64_t left = derived;
        uint64_t right = children[i].row_bound;
        uint64_t product = SatMul(left, right);
        if (node.kind == NodeKind::kUnion) {
          derived = SatAdd(left, right);
        } else if (node.kind == NodeKind::kLeftJoin) {
          derived = SatMul(left, std::max<uint64_t>(1, right));
        } else if (IsJoin(node.kind)) {
          uint64_t fanout = SatMul(std::max(left, right), kJoinFanoutHeadroom);
          derived = std::min(product, fanout);
        } else {
          derived = product;  // Cartesian, Join (and anything unannotated).
        }
      }
    }
    if (node.max_cardinality != kNoEstimate && !children.empty()) {
      derived = std::min(derived, node.max_cardinality);
    }
    return derived;
  }

  /// Working-set and shuffle terms, plus the per-node rules they trigger.
  void AddWorkingSets(const PlanNode& node, const std::string& path,
                      const std::vector<SubtreeFacts>& children,
                      NodeEnvelope* env) {
    if (children.size() < 2) return;
    uint64_t left = nodes_[children[0].env_index].output_bytes;
    uint64_t right = nodes_[children[1].env_index].output_bytes;
    for (size_t i = 2; i < children.size(); ++i) {
      right = SatAdd(right, nodes_[children[i].env_index].output_bytes);
    }
    uint64_t build = std::min(left, right);
    uint64_t inputs = SatAdd(left, right);

    switch (node.kind) {
      case NodeKind::kPartitionedHashJoin:
        env->working_bytes = SatMul(build, kHashBuildFactor);
        if (!node.partition_local) env->shuffle_bytes = inputs;
        break;
      case NodeKind::kBroadcastJoin: {
        uint64_t executors =
            static_cast<uint64_t>(std::max(1, profile_.num_executors));
        env->working_bytes = SatMul(build, executors);
        if (build != kUnboundedBytes &&
            build > profile_.executor_budget_bytes) {
          Report(Severity::kError, "RS001", node, path,
                 "broadcast replica of " + FormatBytesValue(build) +
                     " exceeds the per-executor budget of " +
                     FormatBytesValue(profile_.executor_budget_bytes) +
                     " — every executor holds a full copy",
                 "raise the budget, lower broadcast_threshold_bytes, or "
                 "let the planner fall back to a partitioned join");
        }
        break;
      }
      default:
        // Cartesian products (and star assembly folded the same way) hold
        // both inputs resident while emitting the cross product.
        env->working_bytes = inputs;
        break;
    }

    if ((node.kind == NodeKind::kCartesianProduct ||
         node.kind == NodeKind::kLocalStarMatch) &&
        env->output_bytes != kUnboundedBytes && inputs != kUnboundedBytes &&
        env->output_bytes > SatMul(inputs, kSuperlinearFactor)) {
      Report(Severity::kWarn, "RS005", node, path,
             std::string(node.kind == NodeKind::kCartesianProduct
                             ? "cartesian"
                             : "star") +
                 " working set grows superlinearly: output envelope " +
                 FormatBytesValue(env->output_bytes) + " vs inputs " +
                 FormatBytesValue(inputs),
             "join through a shared variable (or pre-filter the inputs) so "
             "the output stays near-linear in the inputs");
    }
  }

  void Report(Severity severity, const char* rule, const PlanNode& node,
              const std::string& path, std::string message,
              std::string hint) {
    Diagnostic d;
    d.severity = severity;
    d.rule = rule;
    d.node_path = path + " " + NodeKindName(node.kind);
    d.message = std::move(message);
    d.hint = std::move(hint);
    diags_.push_back(std::move(d));
  }

  const ResourceProfile& profile_;
  std::vector<NodeEnvelope> nodes_;
  std::vector<Diagnostic> diags_;
};

/// Widths for the observed fold: same union-of-out_vars schema model as the
/// static side, so envelope and observation use one byte ruler.
uint64_t ObserveNode(const PlanNode& node, std::set<std::string>* vars,
                     ObservedFootprint* out) {
  std::set<std::string> subtree_vars;
  for (const auto& child : node.children) {
    ObserveNode(*child, &subtree_vars, out);
  }
  subtree_vars.insert(node.out_vars.begin(), node.out_vars.end());
  uint64_t width = std::max<uint64_t>(1, subtree_vars.size());
  if (node.actuals && node.actuals->rows_known) {
    out->output_bytes =
        SatAdd(out->output_bytes, TableBytes(node.actuals->rows_out, width));
    ++out->nodes_with_actuals;
  }
  if (vars != nullptr) {
    vars->insert(subtree_vars.begin(), subtree_vars.end());
  }
  return width;
}

}  // namespace

ResourceProfile ResourceProfile::FromCluster(const spark::ClusterConfig& config,
                                             const EngineProfile& engine) {
  ResourceProfile profile;
  profile.engine_name = engine.engine_name;
  profile.num_executors = std::max(1, config.num_executors);
  return profile;
}

ResourceAnalysis AnalyzeResources(const PlanNode& root,
                                  const ResourceProfile& profile) {
  ResourceAnalysis analysis;
  ResourceAnalyzer analyzer(profile);
  analyzer.Visit(root, "0", /*blocking_above=*/false);
  analysis.nodes = analyzer.TakeNodes();
  analysis.findings = analyzer.TakeDiagnostics();

  // ORDER BY / DISTINCT materialize a sort/dedup buffer over the final
  // output; the modifier is a query property, not a plan node, so the
  // profile carries it and the root pays the term.
  if (profile.sort_at_root && !analysis.nodes.empty()) {
    analysis.nodes.front().working_bytes =
        SatAdd(analysis.nodes.front().working_bytes,
               SatMul(analysis.nodes.front().output_bytes, kSortBufferFactor));
  }

  int num_stages = 0;
  for (const auto& env : analysis.nodes) {
    num_stages = std::max(num_stages, env.stage + 1);
    analysis.output_bytes = SatAdd(analysis.output_bytes, env.output_bytes);
  }
  analysis.stages.resize(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    StageEnvelope& stage = analysis.stages[static_cast<size_t>(s)];
    stage.stage = s;
    for (const auto& env : analysis.nodes) {
      // The simulator retains every computed partition (ClusterConfig
      // retain_uncached_rdds), so all outputs produced up to and including
      // stage s stay live while stage s runs.
      if (env.stage <= s) {
        stage.live_output_bytes =
            SatAdd(stage.live_output_bytes, env.output_bytes);
      }
      if (env.stage == s) {
        stage.working_bytes = SatAdd(stage.working_bytes, env.working_bytes);
        stage.shuffle_bytes = SatAdd(stage.shuffle_bytes, env.shuffle_bytes);
      }
    }
    stage.total_bytes = SatAdd(stage.live_output_bytes,
                               SatAdd(stage.working_bytes,
                                      stage.shuffle_bytes));
    analysis.peak_bytes = std::max(analysis.peak_bytes, stage.total_bytes);
  }
  analysis.bounded = analysis.peak_bytes != kUnboundedBytes;

  if (analysis.bounded && analysis.peak_bytes > profile.ClusterBudget()) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = "RS002";
    d.node_path = std::string("0 ") + NodeKindName(root.kind);
    d.message = "peak stage envelope of " +
                FormatBytesValue(analysis.peak_bytes) +
                " exceeds the cluster budget of " +
                FormatBytesValue(profile.ClusterBudget());
    d.hint = "add executors to raise the cluster budget, or narrow the "
             "query so less output stays live across stages";
    analysis.findings.push_back(std::move(d));
  }
  return analysis;
}

ObservedFootprint ObserveFootprint(const PlanNode& root) {
  ObservedFootprint out;
  ObserveNode(root, nullptr, &out);
  return out;
}

std::vector<Diagnostic> DriftFindings(uint64_t envelope_output_bytes,
                                      const ObservedFootprint& observed,
                                      double bound) {
  std::vector<Diagnostic> out;
  if (observed.nodes_with_actuals == 0) return out;
  if (envelope_output_bytes == kUnboundedBytes) return out;
  Diagnostic d;
  d.severity = Severity::kWarn;
  d.rule = "RS006";
  d.node_path = "0 envelope";
  if (observed.output_bytes > envelope_output_bytes) {
    d.message = "observed output of " +
                FormatBytesValue(observed.output_bytes) +
                " exceeds the assumed envelope of " +
                FormatBytesValue(envelope_output_bytes) +
                " — the cached plan's bound is no longer sound";
    d.hint = "re-plan against current statistics (drop the cached plan or "
             "bump the dataset epoch)";
    out.push_back(std::move(d));
    return out;
  }
  if (observed.output_bytes > 0 &&
      static_cast<double>(envelope_output_bytes) >
          bound * static_cast<double>(observed.output_bytes)) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2f",
                  static_cast<double>(envelope_output_bytes) /
                      static_cast<double>(observed.output_bytes));
    d.message = "assumed envelope of " +
                FormatBytesValue(envelope_output_bytes) + " is " + ratio +
                "x the observed " + FormatBytesValue(observed.output_bytes) +
                " — capacity admission is over-conservative for this plan";
    d.hint = "refresh planner statistics so scan caps track the data";
    out.push_back(std::move(d));
  }
  return out;
}

namespace {

/// Pre-order walk matching ResourceAnalyzer::Visit's slot order.
void CalibrateNode(const PlanNode& node, const ResourceAnalysis& analysis,
                   size_t* index, CalibrationSample* out) {
  size_t slot = (*index)++;
  for (const auto& child : node.children) {
    CalibrateNode(*child, analysis, index, out);
  }
  if (!node.children.empty() || slot >= analysis.nodes.size()) return;
  const NodeEnvelope& env = analysis.nodes[slot];
  if (env.output_bytes == kUnboundedBytes) return;
  if (node.actuals == nullptr || !node.actuals->rows_known) return;
  out->envelope_bytes = SatAdd(out->envelope_bytes, env.output_bytes);
  out->observed_bytes =
      SatAdd(out->observed_bytes, TableBytes(node.actuals->rows_out,
                                             env.width));
  ++out->leaves;
}

}  // namespace

CalibrationSample CalibrateScans(const PlanNode& root,
                                 const ResourceAnalysis& analysis) {
  CalibrationSample out;
  size_t index = 0;
  CalibrateNode(root, analysis, &index, &out);
  return out;
}

std::string RenderEnvelope(const ResourceAnalysis& analysis) {
  std::string out;
  for (const auto& stage : analysis.stages) {
    out += "stage " + std::to_string(stage.stage) +
           ": live=" + FormatBytesValue(stage.live_output_bytes) +
           " working=" + FormatBytesValue(stage.working_bytes) +
           " shuffle=" + FormatBytesValue(stage.shuffle_bytes) +
           " total=" + FormatBytesValue(stage.total_bytes) + "\n";
  }
  out += "peak envelope: " + FormatBytesValue(analysis.peak_bytes) +
         " across " + std::to_string(analysis.stages.size()) + " stage" +
         (analysis.stages.size() == 1 ? "" : "s") +
         (analysis.bounded ? "" : " (unbounded)") + "\n";
  out += "operator outputs: " + FormatBytesValue(analysis.output_bytes) +
         " over " + std::to_string(analysis.nodes.size()) + " node" +
         (analysis.nodes.size() == 1 ? "" : "s") + "\n";
  return out;
}

}  // namespace rdfspark::systems::plan
