#include "systems/sparqlgx.h"

#include <algorithm>
#include <memory>

#include "systems/plan/planner_utils.h"

namespace rdfspark::systems {

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

spark::Rdd<sparql::IdTable> SparqlgxEngine::PatternRows(
    const sparql::TriplePattern& tp, const VarSchema& schema) const {
  auto ep = std::make_shared<const EncodedPattern>(
      EncodePattern(store_->dictionary(), tp, schema));
  size_t width = schema.vars().size();

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
        [ep, pid, width](int, const std::vector<SoPair>& in) {
          sparql::IdTable out(width);
          for (const SoPair& so : in) {
            AppendMatch(*ep, rdf::EncodedTriple{so.first, pid, so.second}, {},
                        &out);
          }
          return std::vector<sparql::IdTable>{std::move(out)};
        });
  }
  // Predicate variable: scan everything.
  return all_triples_.MapPartitionsWithIndex(
      [ep, width](int, const std::vector<rdf::EncodedTriple>& in) {
        sparql::IdTable out(width);
        for (const rdf::EncodedTriple& t : in) {
          AppendMatch(*ep, t, {}, &out);
        }
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
  const rdf::Dictionary& dict = store_->dictionary();
  auto schema = std::make_shared<const VarSchema>(BgpSchema(bgp));

  // Optimization: reorder the join sequence by ascending selectivity,
  // keeping the sequence connected. The selectivity is the distinct-count
  // estimate, the statistic SPARQLGX computes ("counts all distinct
  // subjects, predicates and objects").
  std::vector<sparql::TriplePattern> ordered = bgp;
  if (options_.enable_statistics_reordering) {
    ordered = plan::GreedyConnectedOrder(
        bgp, [this, &dict](const sparql::TriplePattern& tp) {
          return DistinctCountEstimate(dict, stats_, tp);
        });
  }

  // Sequential translation: each pattern's rows joined with the
  // accumulated result via keyBy on a common variable. Leaves: a bounded
  // predicate reads only its vertical partition; a predicate variable
  // falls back to the full triple scan.
  return plan::BatchJoinChain(
      sc_, schema, ordered, [this, &dict, &ordered, schema](size_t i) {
        const sparql::TriplePattern& tp = ordered[i];
        plan::AccessPath access = tp.p.is_variable()
                                      ? plan::AccessPath::kFullScan
                                      : plan::AccessPath::kVpTable;
        auto leaf = plan::MakeScan(
            plan::NodeKind::kPatternScan, access, tp.ToString(),
            DistinctCountEstimate(dict, stats_, tp),
            [this, schema, tp](std::vector<plan::PlanPayload>)
                -> Result<plan::PlanPayload> {
              return plan::PlanPayload(PatternRows(tp, *schema));
            });
        AnnotateScan(tp, PatternScanBound(dict, stats_, tp), leaf.get());
        return leaf;
      });
}

plan::EngineProfile SparqlgxEngine::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits_.name;
  profile.vertical_partitioned = true;
  return profile;
}

}  // namespace rdfspark::systems
