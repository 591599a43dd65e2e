#ifndef RDFSPARK_SYSTEMS_PLAN_ANALYZE_H_
#define RDFSPARK_SYSTEMS_PLAN_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "systems/plan/plan.h"

namespace rdfspark::systems::plan {

/// Renders a plan tree that was executed with actuals collection
/// (PlanExecutor(sc, /*collect_actuals=*/true)) as EXPLAIN ANALYZE text.
/// Per-node format, indented two spaces per level like Explain():
///
///   <Kind> [<access> <detail>] (est=<n>|? act=<rows>|? err=<r>x|-)
///       cmp=<n> shuf=<records>/<bytes>B rmt=<bytes>B bcast=<bytes>B
///       reads=L<n>/R<n> tasks=<n> busy=<ms>ms
///
/// (one line per node; wrapped here for readability). `err` is the
/// estimate-error ratio actual/estimated — >1 under-, <1 over-estimate —
/// printed with two decimals, "inf" when est=0 but rows materialized, and
/// "-" when either side is unknown. Counter groups are omitted when zero,
/// so cheap nodes stay one short line. Nodes never executed (descriptive
/// inner nodes under a monolithic root still get charged-through scopes,
/// but un-analyzed trees entirely) render est-only, matching Explain.
///
/// All numbers are bit-identical between executor_threads=1 and N: they
/// are sums over the same multiset of charges (see OpStats).
std::string ExplainAnalyze(const PlanNode& root);

/// The *symmetric* estimate-error factor max(act/est, est/act) — 1.0 is a
/// perfect estimate, larger is worse in either direction. A zero on exactly
/// one side counts as the other side's magnitude (an estimate of 0 that
/// materialized rows is as wrong as the row count is large); 0 vs 0 is 1.0.
double EstimateErrorFactor(uint64_t est, uint64_t act);

/// Max of EstimateErrorFactor over all analyzed nodes. Nodes without an
/// estimate or without known actuals are skipped; returns 0 when no node
/// qualifies.
double MaxEstimateErrorFactor(const PlanNode& root);

/// Estimated vs. observed output cardinality of one leaf operator of an
/// analyzed plan: the per-leaf `patterns` rows of the slow-query audit.
struct LeafActual {
  std::string detail;     ///< Scan annotation: "[<access> <detail>]" text.
  std::string predicate;  ///< Best-effort predicate: the first <IRI> in the
                          ///< detail, else its first token, else "?".
  uint64_t est_rows = 0;  ///< Planner estimate (0 when kNoEstimate).
  uint64_t actual_rows = 0;
};

/// Walks an analyzed plan and returns one LeafActual per leaf node with
/// known actuals, in plan (pre-)order.
std::vector<LeafActual> CollectLeafActuals(const PlanNode& root);

}  // namespace rdfspark::systems::plan

#endif  // RDFSPARK_SYSTEMS_PLAN_ANALYZE_H_
