#ifndef RDFSPARK_SYSTEMS_PLAN_PLANNER_UTILS_H_
#define RDFSPARK_SYSTEMS_PLAN_PLANNER_UTILS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "spark/context.h"
#include "sparql/ast.h"
#include "systems/common.h"
#include "systems/plan/plan.h"

namespace rdfspark::systems::plan {

/// Cost of one triple pattern under a system's statistics (estimated rows).
using PatternCost = std::function<uint64_t(const sparql::TriplePattern&)>;

/// Orders BGP patterns greedily so each one (when possible) shares a
/// variable with the already-ordered prefix, starting from `first`: the
/// next pattern is the earliest connected one, else the earliest unused.
/// Returns indices into `bgp`.
std::vector<size_t> OrderConnected(
    const std::vector<sparql::TriplePattern>& bgp, size_t first);

/// The greedy cost-based order SPARQLGX and GF-SPARQL document: start at the
/// globally cheapest pattern (earliest minimum), then repeatedly pick the
/// unused pattern preferring (a) connectivity to the chosen prefix and
/// (b) lowest cost, ties resolved by input position.
std::vector<sparql::TriplePattern> GreedyConnectedOrder(
    const std::vector<sparql::TriplePattern>& bgp, const PatternCost& cost);

/// The SPARQL-GPP hybrid order: sort pattern indices by ascending cost
/// (std::sort — deliberately matching the engine's historical tie behaviour)
/// and then walk the sorted list keeping the sequence connected. Returns
/// indices into `bgp`.
std::vector<size_t> SortedConnectedOrder(
    const std::vector<sparql::TriplePattern>& bgp, const PatternCost& cost);

/// The left-deep batch join chain of SPARQLGX's sequential translation, the
/// RDD mode of SPARQL-GPP, S2X's data-parallel assembly and Spar(k)ql's
/// variable-predicate fallback. `leaf(i)` builds the scan of `ordered[i]`,
/// an Rdd<IdTable> over `schema`. Each later leaf joins the rows so far
/// with JoinBatchesOn on its first already-bound variable (detail "on ?v");
/// a leaf sharing no variable is merged with CartesianMergeBatches
/// ("merge-rows"). One Project on top collects `schema`'s bindings.
PlanPtr BatchJoinChain(spark::SparkContext* sc,
                       std::shared_ptr<const VarSchema> schema,
                       const std::vector<sparql::TriplePattern>& ordered,
                       const std::function<PlanPtr(size_t)>& leaf);

}  // namespace rdfspark::systems::plan

#endif  // RDFSPARK_SYSTEMS_PLAN_PLANNER_UTILS_H_
