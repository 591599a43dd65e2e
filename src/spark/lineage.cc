#include "spark/lineage.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace rdfspark::spark {

using systems::plan::Diagnostic;
using systems::plan::Severity;

namespace {

/// "rdd <id> <name>" — the lineage analogue of the plan verifier's dotted
/// node path; stable because node ids are assigned serially on the driver.
std::string NodeLabel(const LineageNodeInfo& n) {
  return "rdd " + std::to_string(n.id) + " " + n.name;
}

std::string DescribePartitioner(const PartitionerInfo& p) {
  return p.kind + "/" + std::to_string(p.num_partitions);
}

}  // namespace

LineageGraph LineageGraph::Capture(
    const std::vector<const RddNodeBase*>& roots) {
  LineageGraph g;
  std::unordered_set<int> visited;
  std::function<void(const RddNodeBase*)> visit =
      [&](const RddNodeBase* node) {
        if (node == nullptr) return;
        if (!visited.insert(node->id()).second) return;
        LineageNodeInfo info;
        info.id = node->id();
        info.name = node->name();
        info.num_partitions = node->num_partitions();
        info.is_shuffle = node->is_shuffle();
        info.cached = node->cached();
        info.retained_bytes = node->RetainedBytes();
        info.partitioner = node->partitioner();
        for (const auto& parent : node->parents()) {
          info.parents.push_back(parent->id());
        }
        g.nodes_.push_back(std::move(info));
        for (const auto& parent : node->parents()) visit(parent.get());
      };
  for (const RddNodeBase* root : roots) visit(root);
  std::sort(g.nodes_.begin(), g.nodes_.end(),
            [](const LineageNodeInfo& a, const LineageNodeInfo& b) {
              return a.id < b.id;
            });
  // Derive child edges (consumers) from the parent edges.
  std::unordered_map<int, LineageNodeInfo*> by_id;
  for (auto& n : g.nodes_) by_id[n.id] = &n;
  for (const auto& n : g.nodes_) {
    for (int parent : n.parents) {
      auto it = by_id.find(parent);
      if (it != by_id.end()) it->second->children.push_back(n.id);
    }
  }
  for (auto& n : g.nodes_) std::sort(n.children.begin(), n.children.end());
  // Stage fold: stage(n) = max over parents + [n is wide]. nodes_ is
  // id-sorted and parents always have smaller ids (assigned at
  // construction, parents first), so the forward pass is topological —
  // the same sweep MaxShuffleDepth uses.
  for (auto& n : g.nodes_) {
    int parent_max = 0;
    for (int parent : n.parents) {
      auto it = by_id.find(parent);
      if (it != by_id.end()) {
        parent_max = std::max(parent_max, it->second->stage);
      }
    }
    n.stage = parent_max + (n.is_shuffle ? 1 : 0);
  }
  return g;
}

LineageGraph LineageGraph::Capture(const RddNodeBase* root) {
  return Capture(std::vector<const RddNodeBase*>{root});
}

const LineageNodeInfo* LineageGraph::Find(int id) const {
  for (const auto& n : nodes_) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

int LineageGraph::ShuffleCount() const {
  int count = 0;
  for (const auto& n : nodes_) count += n.is_shuffle ? 1 : 0;
  return count;
}

int LineageGraph::MaxShuffleDepth() const {
  // depth(n) = [n is wide] + max over parents of depth(parent); nodes_ is
  // id-sorted and parents always have smaller ids than children (node ids
  // are assigned at construction, parents first), so one forward pass is a
  // topological sweep.
  std::unordered_map<int, int> depth;
  int max_depth = 0;
  for (const auto& n : nodes_) {
    int d = n.is_shuffle ? 1 : 0;
    int parent_max = 0;
    for (int parent : n.parents) {
      auto it = depth.find(parent);
      if (it != depth.end()) parent_max = std::max(parent_max, it->second);
    }
    d += parent_max;
    depth[n.id] = d;
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

uint64_t LineageGraph::TotalRetainedBytes() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) total += n.retained_bytes;
  return total;
}

std::vector<Diagnostic> LineageGraph::AnalyzeRetention() const {
  std::vector<Diagnostic> out;
  // Below the floor the "dominant" share is noise: a single small cached
  // table trivially dominates an otherwise-empty snapshot.
  constexpr uint64_t kRetentionFloorBytes = 64 * 1024;
  const uint64_t total = TotalRetainedBytes();
  if (total < kRetentionFloorBytes) return out;
  for (const auto& n : nodes_) {
    // RS004: a persisted node with at most one captured consumer is never
    // re-read — the cache buys nothing a narrow recompute would not —
    // yet it pins the dominant share (> 1/2) of all retained bytes.
    if (!n.cached || n.children.size() > 1) continue;
    if (n.retained_bytes * 2 <= total) continue;
    Diagnostic d;
    d.severity = Severity::kWarn;
    d.rule = "RS004";
    d.node_path = NodeLabel(n);
    d.message = "cached RDD retains " + std::to_string(n.retained_bytes) +
                "B of " + std::to_string(total) +
                "B total with " + std::to_string(n.children.size()) +
                " captured consumer(s); the persist is never re-read";
    d.hint =
        "Uncache() the node after its single consumer, or run the context "
        "with retain_uncached_rdds = false";
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<Diagnostic> LineageGraph::Analyze() const {
  std::vector<Diagnostic> out;

  for (const auto& n : nodes_) {
    // LN001: a narrow, uncached node with several captured consumers is
    // recomputed once per consumer — the missing-cache hazard. Wide nodes
    // are exempt: their shuffle buckets persist in ShuffleState exactly as
    // Spark's shuffle files outlive the task that wrote them.
    if (!n.cached && !n.is_shuffle && n.children.size() >= 2) {
      Diagnostic d;
      d.severity = Severity::kWarn;
      d.rule = "LN001";
      d.node_path = NodeLabel(n);
      d.message = "uncached RDD feeds " + std::to_string(n.children.size()) +
                  " consumers; its partitions are recomputed per consumer";
      d.hint = "persist the shared RDD with Cache() so it computes once";
      out.push_back(std::move(d));
    }

    // LN002: a wide node whose inputs already all carry the node's own
    // partitioner exchanges data that is already in place.
    if (n.is_shuffle && n.partitioner && !n.parents.empty()) {
      bool all_match = true;
      for (int parent_id : n.parents) {
        const LineageNodeInfo* parent = Find(parent_id);
        if (parent == nullptr || !parent->partitioner ||
            !(*parent->partitioner == *n.partitioner)) {
          all_match = false;
          break;
        }
      }
      if (all_match) {
        Diagnostic d;
        d.severity = Severity::kWarn;
        d.rule = "LN002";
        d.node_path = NodeLabel(n);
        d.message = "shuffle re-partitions inputs already partitioned by " +
                    DescribePartitioner(*n.partitioner);
        d.hint =
            "reuse the existing partitioner; PartitionByKey is a no-op on "
            "equal PartitionerInfo";
        out.push_back(std::move(d));
      }
    }
  }

  // LN003: deep wide-dependency chain — each wide edge is a stage barrier.
  constexpr int kDeepShuffleChain = 4;
  int depth = MaxShuffleDepth();
  if (depth >= kDeepShuffleChain) {
    Diagnostic d;
    d.severity = Severity::kInfo;
    d.rule = "LN003";
    d.node_path = "lineage";
    d.message = "longest path crosses " + std::to_string(depth) +
                " shuffles (" + std::to_string(ShuffleCount()) +
                " wide nodes total); each is a stage barrier";
    d.hint =
        "cache intermediate results or collapse join stages to shorten the "
        "critical path";
    out.push_back(std::move(d));
  }

  return out;
}

std::string LineageGraph::ToDot() const {
  std::string out = "digraph lineage {\n  rankdir=BT;\n";
  for (const auto& n : nodes_) {
    out += "  n" + std::to_string(n.id) + " [label=\"#" +
           std::to_string(n.id) + " " + n.name + "\\n" +
           std::to_string(n.num_partitions) + " parts";
    if (n.partitioner) out += " " + DescribePartitioner(*n.partitioner);
    out += "\"";
    if (n.is_shuffle) out += ", shape=box";
    if (n.cached) out += ", style=filled, fillcolor=lightgrey";
    out += "];\n";
  }
  for (const auto& n : nodes_) {
    for (int parent : n.parents) {
      out += "  n" + std::to_string(n.id) + " -> n" + std::to_string(parent);
      if (n.is_shuffle) out += " [style=dashed, label=\"shuffle\"]";
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace rdfspark::spark
