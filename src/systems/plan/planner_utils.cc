#include "systems/plan/planner_utils.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "systems/batch.h"

namespace rdfspark::systems::plan {

std::vector<size_t> OrderConnected(
    const std::vector<sparql::TriplePattern>& bgp, size_t first) {
  std::vector<size_t> out;
  if (bgp.empty()) return out;
  std::vector<bool> used(bgp.size(), false);
  VarSchema seen;
  auto take = [&](size_t i) {
    used[i] = true;
    for (const auto& v : bgp[i].Variables()) seen.Add(v);
    out.push_back(i);
  };
  take(std::min(first, bgp.size() - 1));
  while (out.size() < bgp.size()) {
    int next = -1;
    for (size_t i = 0; i < bgp.size(); ++i) {
      if (used[i]) continue;
      if (!SharedVars(bgp[i], seen).empty()) {
        next = static_cast<int>(i);
        break;
      }
      if (next < 0) next = static_cast<int>(i);  // fallback: disconnected
    }
    take(static_cast<size_t>(next));
  }
  return out;
}

std::vector<sparql::TriplePattern> GreedyConnectedOrder(
    const std::vector<sparql::TriplePattern>& bgp, const PatternCost& cost) {
  if (bgp.empty()) return bgp;
  std::vector<sparql::TriplePattern> result;
  std::vector<bool> used(bgp.size(), false);
  VarSchema seen;
  size_t first = 0;
  for (size_t i = 1; i < bgp.size(); ++i) {
    if (cost(bgp[i]) < cost(bgp[first])) first = i;
  }
  auto take = [&](size_t i) {
    used[i] = true;
    for (const auto& v : bgp[i].Variables()) seen.Add(v);
    result.push_back(bgp[i]);
  };
  take(first);
  while (result.size() < bgp.size()) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < bgp.size(); ++i) {
      if (used[i]) continue;
      bool connected = !SharedVars(bgp[i], seen).empty();
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected &&
           cost(bgp[i]) < cost(bgp[static_cast<size_t>(best)]))) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    take(static_cast<size_t>(best));
  }
  return result;
}

std::vector<size_t> SortedConnectedOrder(
    const std::vector<sparql::TriplePattern>& bgp, const PatternCost& cost) {
  std::vector<size_t> order(bgp.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return cost(bgp[a]) < cost(bgp[b]); });
  std::vector<sparql::TriplePattern> sorted;
  for (size_t i : order) sorted.push_back(bgp[i]);
  std::vector<size_t> connected;
  for (size_t k : OrderConnected(sorted, 0)) connected.push_back(order[k]);
  return connected;
}

PlanPtr BatchJoinChain(spark::SparkContext* sc,
                       std::shared_ptr<const VarSchema> schema,
                       const std::vector<sparql::TriplePattern>& ordered,
                       const std::function<PlanPtr(size_t)>& leaf) {
  using spark::Rdd;
  size_t width = schema->vars().size();
  PlanPtr root = leaf(0);
  VarSchema bound;
  for (const auto& v : ordered[0].Variables()) bound.Add(v);
  for (size_t i = 1; i < ordered.size(); ++i) {
    auto shared = SharedVars(ordered[i], bound);
    if (shared.empty()) {
      // "If no common variable is found the cross product is computed."
      root = MakeBinary(
          NodeKind::kCartesianProduct, "merge-rows", std::move(root), leaf(i),
          [sc, width](std::vector<PlanPayload> in) -> Result<PlanPayload> {
            auto current = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
            auto rows = std::get<Rdd<sparql::IdTable>>(std::move(in[1]));
            return PlanPayload(CartesianMergeBatches(sc, current, rows, width));
          });
    } else {
      int key_idx = schema->IndexOf(shared[0]);
      root = MakeBinary(
          NodeKind::kPartitionedHashJoin, "on ?" + shared[0], std::move(root),
          leaf(i),
          [sc, key_idx, width](std::vector<PlanPayload> in)
              -> Result<PlanPayload> {
            auto current = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
            auto rows = std::get<Rdd<sparql::IdTable>>(std::move(in[1]));
            return PlanPayload(
                JoinBatchesOn(sc, current, rows, key_idx, width));
          });
      root->key_vars = {shared[0]};
    }
    for (const auto& v : ordered[i].Variables()) bound.Add(v);
  }
  auto project = MakeUnary(
      NodeKind::kProject, VarsDetail(schema->vars()), std::move(root),
      [schema, width](std::vector<PlanPayload> in) -> Result<PlanPayload> {
        auto current = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
        return PlanPayload(
            ToBindingTable(*schema, CollectRows(current, width)));
      });
  project->key_vars = schema->vars();
  return project;
}

}  // namespace rdfspark::systems::plan
