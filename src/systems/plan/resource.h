#ifndef RDFSPARK_SYSTEMS_PLAN_RESOURCE_H_
#define RDFSPARK_SYSTEMS_PLAN_RESOURCE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "spark/context.h"
#include "systems/plan/diagnostics.h"
#include "systems/plan/plan.h"
#include "systems/plan/verifier.h"

namespace rdfspark::systems::plan {

/// Tier D of the static dataflow lint: memory/shuffle envelope analysis.
///
/// The analyzer symbolically propagates per-operator *byte envelopes*
/// bottom-up over a physical plan: every operator's output is bounded in
/// the flat IdTable byte model (fixed-width rows of 8-byte term ids plus a
/// 16-byte batch header), operator working sets (hash-build side, broadcast
/// replicas, sort buffers) are added on top, and the plan's shuffle-barrier
/// stage structure is folded into a peak concurrent envelope — the most
/// bytes the simulated cluster can have live at once while the plan runs.
///
/// Envelopes are *bounds*, not estimates: a node's row bound prefers the
/// planner's sound cap (PlanNode::max_cardinality, the size of the scanned
/// base relation) over its selectivity estimate, and interior bounds are
/// derived structurally (equi-joins bounded by the larger input times a
/// small fanout headroom, capped at the product; Cartesian products and the
/// driver-side Join by the product; a Union by the sum of its inputs; a
/// LeftJoin by left x max(1, right)). The soundness contract — static peak
/// envelope >= bytes actually observed by EXPLAIN ANALYZE — is enforced as
/// a property test over the LUBM corpus x all twelve engine variants, and
/// the envelope-vs-actual ratio is gated in CI so the bounds stay useful.
///
/// Rule catalog (DESIGN.md has the full symptom/term/fix table):
///   RS001 ERROR  broadcast replica exceeds the per-executor budget
///   RS002 ERROR  peak stage envelope exceeds the cluster budget
///   RS003 WARN   unbounded envelope: a kNoEstimate leaf feeds a blocking
///                operator, so no byte bound exists for its working set
///   RS004 WARN   cache retention dominated by a never-reread RDD
///                (emitted by spark::LineageGraph::AnalyzeRetention)
///   RS005 WARN   cartesian/star working set superlinear in its inputs
///   RS006 WARN   envelope drift: a plan's assumed envelope diverges from
///                the actuals EXPLAIN ANALYZE observed beyond a bound

/// Byte model shared with sparql::IdTable (EstimatedByteSize):
/// width * 8 bytes per row, one 16-byte header per materialized batch.
inline constexpr uint64_t kEnvelopeBytesPerCell = 8;
inline constexpr uint64_t kEnvelopeBatchHeaderBytes = 16;

/// Envelope value meaning "no finite bound derivable".
inline constexpr uint64_t kUnboundedBytes =
    std::numeric_limits<uint64_t>::max();

/// Model constants. kJoinFanoutHeadroom multiplies the larger input of a
/// keyed equi-join (LUBM-style foreign-key joins stay below the larger
/// input; the headroom absorbs moderate key fanout). kHashBuildFactor
/// covers hash-table overhead over the build side's payload bytes.
/// kSortBufferFactor covers the sort/dedup buffer ORDER BY and DISTINCT
/// materialize over the final output.
inline constexpr uint64_t kJoinFanoutHeadroom = 2;
inline constexpr uint64_t kHashBuildFactor = 2;
inline constexpr uint64_t kSortBufferFactor = 2;
/// RS005 fires when a product grows beyond this multiple of its inputs.
inline constexpr uint64_t kSuperlinearFactor = 4;
/// RS006 default: envelope more than this multiple over (or any amount
/// under) the observed bytes counts as drift.
inline constexpr double kEnvelopeDriftBound = 16.0;

/// The budgets and cluster facts the envelope is checked against.
struct ResourceProfile {
  std::string engine_name;
  int num_executors = 4;
  /// Memory one executor can dedicate to a single query's working sets and
  /// broadcast replicas. The model default stands in for a typical
  /// spark.executor.memory slice. (The serving budget gate compares the
  /// peak envelope against its own Options::memory_budget_bytes; it does
  /// not change this profile.)
  uint64_t executor_budget_bytes = 64ull << 20;
  /// Whole-cluster budget for the peak concurrent envelope; 0 derives
  /// num_executors * executor_budget_bytes.
  uint64_t cluster_budget_bytes = 0;
  /// The query carries ORDER BY or DISTINCT: the root pays a sort buffer.
  bool sort_at_root = false;

  uint64_t ClusterBudget() const {
    return cluster_budget_bytes != 0
               ? cluster_budget_bytes
               : executor_budget_bytes *
                     static_cast<uint64_t>(num_executors < 1 ? 1
                                                             : num_executors);
  }

  /// Profile for plans built by an engine bound to `config`.
  static ResourceProfile FromCluster(const spark::ClusterConfig& config,
                                     const EngineProfile& engine);
};

/// Per-node envelope, in the pre-order position of the node in the plan.
struct NodeEnvelope {
  std::string path;       ///< Same path syntax as the verifier's findings.
  NodeKind kind = NodeKind::kProject;
  uint64_t row_bound = kNoEstimate;  ///< kNoEstimate = unbounded.
  uint64_t width = 1;                ///< Output schema width (variables).
  uint64_t output_bytes = kUnboundedBytes;
  uint64_t working_bytes = 0;  ///< Hash build / broadcast / sort term.
  uint64_t shuffle_bytes = 0;  ///< In-flight shuffle buffer term.
  int stage = 0;               ///< Shuffle-barrier stage index (0-based).
};

/// One stage's concurrent envelope: everything retained up to and including
/// the stage (the simulator retains every computed partition), the working
/// sets of the operators running in the stage, and the shuffle buffers
/// crossing into it.
struct StageEnvelope {
  int stage = 0;
  uint64_t live_output_bytes = 0;
  uint64_t working_bytes = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t total_bytes = 0;  ///< Sum; kUnboundedBytes when poisoned.
};

struct ResourceAnalysis {
  std::vector<NodeEnvelope> nodes;    ///< Pre-order, deterministic.
  std::vector<StageEnvelope> stages;  ///< Ascending stage index.
  /// Max stage total: the peak concurrent envelope the admission gate and
  /// the soundness property compare against budgets and actuals.
  uint64_t peak_bytes = 0;
  /// Sum of all operator output envelopes — the "over-estimation ratio"
  /// numerator CI gates against observed bytes (working sets excluded:
  /// they are deliberate safety margin, not estimation error).
  uint64_t output_bytes = 0;
  bool bounded = true;
  std::vector<Diagnostic> findings;  ///< RS001/RS002/RS003/RS005.
};

/// Pure static analysis: no Spark state touched, no metrics charged.
/// Deterministic: a pure function of the plan tree and the profile, so the
/// result is byte-identical regardless of executor threading.
ResourceAnalysis AnalyzeResources(const PlanNode& root,
                                  const ResourceProfile& profile);

/// The observed counterpart, folded over a plan EXPLAIN ANALYZE annotated
/// (PlanExecutor with collect_actuals): the same IdTable byte model with
/// each operator's *actual* output rows. Nodes without known actuals
/// (descriptive inner nodes of monolithic back-ends) contribute nothing.
struct ObservedFootprint {
  uint64_t output_bytes = 0;
  int nodes_with_actuals = 0;
};

ObservedFootprint ObserveFootprint(const PlanNode& root);

/// RS006 drift check: compares a plan's assumed output envelope against the
/// bytes a profiled execution actually materialized. Fires when the
/// envelope under-estimates (observed > envelope — a soundness violation)
/// or over-estimates beyond `bound`.
std::vector<Diagnostic> DriftFindings(uint64_t envelope_output_bytes,
                                      const ObservedFootprint& observed,
                                      double bound = kEnvelopeDriftBound);

/// Scan-calibration sample: envelope vs observed bytes summed over exactly
/// the scan leaves whose actual output is known. Interior join/product
/// bounds compound multiplicatively by design (that is what makes them
/// sound), so whole-plan sums over-estimate without limit as plans deepen;
/// the *leaves* are where the statistics live, and their ratio is what CI
/// gates to keep the model calibrated. `analysis` must come from
/// AnalyzeResources over this same `root` (pre-order node alignment).
struct CalibrationSample {
  uint64_t envelope_bytes = 0;
  uint64_t observed_bytes = 0;
  int leaves = 0;  ///< Scan leaves with known actuals and a bounded envelope.
};

CalibrationSample CalibrateScans(const PlanNode& root,
                                 const ResourceAnalysis& analysis);

/// Deterministic text rendering of an analysis: one line per stage plus
/// the peak/output summary (integer bytes only, so output is byte-stable).
std::string RenderEnvelope(const ResourceAnalysis& analysis);

}  // namespace rdfspark::systems::plan

#endif  // RDFSPARK_SYSTEMS_PLAN_RESOURCE_H_
