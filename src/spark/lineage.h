#ifndef RDFSPARK_SPARK_LINEAGE_H_
#define RDFSPARK_SPARK_LINEAGE_H_

#include <optional>
#include <string>
#include <vector>

#include "spark/context.h"
#include "spark/rdd.h"
#include "systems/plan/diagnostics.h"

namespace rdfspark::spark {

/// Immutable snapshot of one RDD lineage node taken by LineageGraph::Capture.
/// Everything the lineage rules need is copied out, so the snapshot stays
/// valid after the RDDs themselves are released.
struct LineageNodeInfo {
  int id = 0;
  std::string name;
  int num_partitions = 0;
  /// Wide dependency: this node reads a shuffle of its parents.
  bool is_shuffle = false;
  /// Persist bit at capture time (RddNodeBase::cached).
  bool cached = false;
  /// Bytes held by retained partitions at capture time
  /// (RddNodeBase::RetainedBytes, the shared EstimateSize model).
  uint64_t retained_bytes = 0;
  /// Stage index in the simulated job: max over parents, plus one when this
  /// node reads a shuffle — the lineage-side analogue of the Tier D stage
  /// fold over plan trees. Derived at capture.
  int stage = 0;
  std::optional<PartitionerInfo> partitioner;
  std::vector<int> parents;   ///< Ids of parent nodes, lineage order.
  std::vector<int> children;  ///< Ids of captured consumers (derived).
};

/// A static snapshot of the lineage DAG reachable from one or more RDD
/// roots, taken without computing any partition. This is the lineage-tier
/// counterpart of the plan verifier: rules over the graph predict recompute
/// and shuffle cost before a single task runs.
///
/// Rules (stable ids, rendered in the shared Diagnostic format):
///   LN001  shared uncached lineage — a narrow node consumed by >= 2
///          captured descendants without the persist bit recomputes once
///          per consumer (WARN; never fires under the simulator's default
///          retain-everything configuration).
///   LN002  redundant shuffle — a wide node whose inputs all already carry
///          the shuffle's own partitioner; the exchange moves nothing that
///          is not already in place (WARN).
///   LN003  deep shuffle chain — the longest root-to-sink path crosses >= 4
///          wide dependencies; reports the estimated shuffle count, i.e.
///          the stage-barrier depth of the job (INFO).
class LineageGraph {
 public:
  /// Snapshots the DAG reachable from `roots` (duplicates and shared
  /// sub-lineage are captured once). Nodes are stored sorted by id, so two
  /// captures of the same lineage are identical — the determinism
  /// dataflow_lint depends on.
  static LineageGraph Capture(const std::vector<const RddNodeBase*>& roots);
  static LineageGraph Capture(const RddNodeBase* root);

  /// Nodes sorted by ascending id.
  const std::vector<LineageNodeInfo>& nodes() const { return nodes_; }

  /// Looks a node up by id; nullptr when the id was not captured.
  const LineageNodeInfo* Find(int id) const;

  /// Number of wide (shuffle) nodes in the snapshot.
  int ShuffleCount() const;

  /// Maximum number of wide dependencies crossed on any path from a source
  /// to a sink — the job's stage-barrier depth.
  int MaxShuffleDepth() const;

  /// Runs LN001/LN002/LN003 over the snapshot. Findings are ordered by
  /// node id then rule, deterministically.
  std::vector<systems::plan::Diagnostic> Analyze() const;

  /// Total bytes retained across all captured nodes (Σ retained_bytes).
  uint64_t TotalRetainedBytes() const;

  /// Tier D retention rule over the snapshot:
  ///   RS004  cache-retention footprint dominated by a never-reread RDD —
  ///          a cached node with at most one captured consumer holds more
  ///          than half of all retained bytes (above a noise floor); the
  ///          persist buys no recompute savings a narrow recompute would
  ///          not, yet pins the dominant share of executor memory (WARN).
  /// Kept separate from Analyze() so the LN tier stays byte-identical;
  /// dataflow_lint's Tier D pass calls both and merges.
  std::vector<systems::plan::Diagnostic> AnalyzeRetention() const;

  /// Graphviz rendering: wide edges dashed, cached nodes filled, the
  /// partitioner shown on nodes that carry one.
  std::string ToDot() const;

 private:
  std::vector<LineageNodeInfo> nodes_;
};

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_LINEAGE_H_
