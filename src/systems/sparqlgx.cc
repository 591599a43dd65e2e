#include "systems/sparqlgx.h"

#include <algorithm>
#include <memory>
#include <variant>

#include "systems/batch.h"
#include "systems/plan/planner_utils.h"

namespace rdfspark::systems {

using spark::Rdd;

SparqlgxEngine::SparqlgxEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = "SPARQLGX";
  traits_.citation = "[13] Graux, Jachiet, Geneves, Layaida — ISWC 2016";
  traits_.data_model = DataModel::kTriple;
  traits_.abstractions = {SparkAbstraction::kRdd};
  traits_.query_processing = "RDD API";
  traits_.has_optimization = true;
  traits_.optimization_note =
      "join reordering from distinct subject/predicate/object statistics";
  traits_.partitioning = "Vertical";
  traits_.fragment = SparqlFragment::kBgpPlus;
  traits_.contribution =
      "vertical partitioning shrinks the footprint; bounded-predicate "
      "patterns read only their predicate's file";
}

Result<LoadStats> SparqlgxEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  stats_ = store.ComputeStatistics();
  num_partitions_ = options_.num_partitions > 0
                        ? options_.num_partitions
                        : sc_->config().default_parallelism;

  // Vertical partitioning: one (s, o) dataset per predicate. A reload
  // (dataset hot-swap) must drop every previous predicate dataset:
  // emplace below is a no-op for surviving keys, and predicates absent
  // from the new store would otherwise keep serving the old triples.
  vp_.clear();
  std::unordered_map<rdf::TermId, std::vector<SoPair>> buckets;
  for (const auto& t : store.triples()) {
    buckets[t.p].emplace_back(t.s, t.o);
  }
  uint64_t stored_bytes = 0;
  for (auto& [p, pairs] : buckets) {
    // Small predicates still get at least one partition.
    int parts = std::max(
        1, std::min(num_partitions_,
                    static_cast<int>(pairs.size() / 64 + 1)));
    auto rdd = Parallelize(sc_, std::move(pairs), parts);
    rdd.Count();  // materialize the "file"
    stored_bytes += rdd.MemoryFootprint();
    vp_.emplace(p, std::move(rdd));
  }
  all_triples_ =
      Parallelize(sc_, std::vector<rdf::EncodedTriple>(
                           store.triples().begin(), store.triples().end()),
                  num_partitions_);

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = store.triples().size();
  stats.stored_bytes = stored_bytes;
  return stats;
}

uint64_t SparqlgxEngine::PatternSelectivity(
    const sparql::TriplePattern& tp) const {
  const rdf::Dictionary& dict = store_->dictionary();
  // Base cardinality: the predicate's VP size, or all triples.
  double cardinality = static_cast<double>(stats_.num_triples);
  if (!tp.p.is_variable()) {
    auto id = dict.Lookup(tp.p.term());
    if (!id.ok()) return 0;
    auto it = stats_.predicate_count.find(*id);
    cardinality = it == stats_.predicate_count.end()
                      ? 0.0
                      : static_cast<double>(it->second);
  }
  // Bound subject/object shrink the estimate by the distinct counts — the
  // statistic SPARQLGX computes ("counts all distinct subjects, predicates
  // and objects").
  if (!tp.s.is_variable() && stats_.distinct_subjects > 0) {
    cardinality /= static_cast<double>(stats_.distinct_subjects);
  }
  if (!tp.o.is_variable() && stats_.distinct_objects > 0) {
    cardinality /= static_cast<double>(stats_.distinct_objects);
  }
  return static_cast<uint64_t>(cardinality) + 1;
}

spark::Rdd<sparql::IdTable> SparqlgxEngine::PatternRows(
    const sparql::TriplePattern& tp, const VarSchema& schema) const {
  auto ep = std::make_shared<const EncodedPattern>(
      EncodePattern(store_->dictionary(), tp));
  auto pattern = std::make_shared<const sparql::TriplePattern>(tp);
  auto schema_copy = std::make_shared<const VarSchema>(schema);
  size_t width = schema.vars().size();

  // Expands one partition's matches into a single fixed-width batch: a row
  // is appended pre-filled with kUnbound, extended in place, and popped
  // when a repeated variable conflicts.
  auto expand = [ep, pattern, schema_copy, width](sparql::IdTable* out,
                                                  const rdf::EncodedTriple& t) {
    if (!MatchesConstants(*ep, t)) return;
    rdf::TermId* cells = out->AppendRowUninitialized();
    std::fill(cells, cells + width, sparql::kUnbound);
    if (!ExtendRowCells(*pattern, t, *schema_copy, cells)) out->PopRow();
  };

  if (!tp.p.is_variable()) {
    if (ep->impossible || !ep->ids.p) {
      return Parallelize(sc_, std::vector<sparql::IdTable>{
                                  sparql::IdTable(width)},
                         1);
    }
    auto it = vp_.find(*ep->ids.p);
    if (it == vp_.end()) {
      return Parallelize(sc_, std::vector<sparql::IdTable>{
                                  sparql::IdTable(width)},
                         1);
    }
    rdf::TermId pid = *ep->ids.p;
    return it->second.MapPartitionsWithIndex(
        [expand, pid, width](int, const std::vector<SoPair>& in) {
          sparql::IdTable out(width);
          for (const SoPair& so : in) {
            expand(&out, rdf::EncodedTriple{so.first, pid, so.second});
          }
          return std::vector<sparql::IdTable>{std::move(out)};
        });
  }
  // Predicate variable: scan everything.
  return all_triples_.MapPartitionsWithIndex(
      [expand, width](int, const std::vector<rdf::EncodedTriple>& in) {
        sparql::IdTable out(width);
        for (const rdf::EncodedTriple& t : in) expand(&out, t);
        return std::vector<sparql::IdTable>{std::move(out)};
      });
}

Result<plan::PlanPtr> SparqlgxEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) {
    return Status::Internal("SPARQLGX: Load() not called");
  }
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }

  auto schema = std::make_shared<VarSchema>();
  for (const auto& tp : bgp) {
    for (const auto& v : tp.Variables()) schema->Add(v);
  }
  size_t width = schema->vars().size();

  // Optimization: reorder the join sequence by ascending selectivity,
  // keeping the sequence connected.
  std::vector<sparql::TriplePattern> ordered = bgp;
  if (options_.enable_statistics_reordering) {
    ordered = plan::GreedyConnectedOrder(
        bgp,
        [this](const sparql::TriplePattern& tp) {
          return PatternSelectivity(tp);
        });
  }

  // Leaves: a bounded predicate reads only its vertical partition; a
  // predicate variable falls back to the full triple scan.
  auto scan = [this, schema](const sparql::TriplePattern& tp) {
    plan::AccessPath access = tp.p.is_variable()
                                  ? plan::AccessPath::kFullScan
                                  : plan::AccessPath::kVpTable;
    auto leaf = plan::MakeScan(
        plan::NodeKind::kPatternScan, access, tp.ToString(),
        PatternSelectivity(tp),
        [this, schema, tp](std::vector<plan::PlanPayload>)
            -> Result<plan::PlanPayload> {
          return plan::PlanPayload(PatternRows(tp, *schema));
        });
    leaf->out_vars = tp.Variables();
    if (tp.s.is_variable()) leaf->subject_var = tp.s.var();
    leaf->max_cardinality = PatternScanBound(store_->dictionary(), stats_, tp);
    return leaf;
  };

  // Sequential translation: each pattern's rows joined with the
  // accumulated result via keyBy on a common variable.
  plan::PlanPtr root = scan(ordered[0]);
  VarSchema bound;
  for (const auto& v : ordered[0].Variables()) bound.Add(v);

  for (size_t i = 1; i < ordered.size(); ++i) {
    const auto& tp = ordered[i];
    auto shared = SharedVars(tp, bound);
    if (shared.empty()) {
      // "If no common variable is found the cross product is computed."
      root = plan::MakeBinary(
          plan::NodeKind::kCartesianProduct, "merge-rows", std::move(root),
          scan(tp),
          [this, width](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto current = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
            auto rows = std::get<Rdd<sparql::IdTable>>(std::move(in[1]));
            return plan::PlanPayload(
                CartesianMergeBatches(sc_, current, rows, width));
          });
    } else {
      int key_idx = schema->IndexOf(shared[0]);
      root = plan::MakeBinary(
          plan::NodeKind::kPartitionedHashJoin, "on ?" + shared[0],
          std::move(root), scan(tp),
          [this, key_idx, width](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto current = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
            auto rows = std::get<Rdd<sparql::IdTable>>(std::move(in[1]));
            return plan::PlanPayload(
                JoinBatchesOn(sc_, current, rows, key_idx, width));
          });
      root->key_vars = {shared[0]};
    }
    for (const auto& v : tp.Variables()) bound.Add(v);
  }

  std::string vars_detail;
  for (const auto& v : schema->vars()) {
    vars_detail += (vars_detail.empty() ? "?" : " ?") + v;
  }
  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, vars_detail, std::move(root),
      [schema, width](std::vector<plan::PlanPayload> in)
          -> Result<plan::PlanPayload> {
        auto current = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
        return plan::PlanPayload(
            ToBindingTable(*schema, CollectRows(current, width)));
      });
  project->key_vars = schema->vars();
  return project;
}

plan::EngineProfile SparqlgxEngine::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits_.name;
  profile.vertical_partitioned = true;
  return profile;
}

}  // namespace rdfspark::systems
