#include "systems/graphx_sm.h"

#include <memory>
#include <variant>

#include "systems/plan/planner_utils.h"

namespace rdfspark::systems {

using spark::Rdd;
using spark::graphx::Edge;
using spark::graphx::EdgeTriplet;
using spark::graphx::Graph;
using spark::graphx::VertexId;

namespace {

/// A Match Track table: partial binding rows ending at a vertex, stored as
/// one flat fixed-width batch.
using Mt = sparql::IdTable;
/// Vertex attribute during evaluation: the vertex's term + its MT table.
using VAttr = std::pair<rdf::TermId, Mt>;

}  // namespace

GraphxSmEngine::GraphxSmEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = "GraphX-SM";
  traits_.citation = "[16] Kassaie — arXiv:1701.03091, 2017";
  traits_.data_model = DataModel::kGraph;
  traits_.abstractions = {SparkAbstraction::kGraphX};
  traits_.query_processing = "Graph Iterations";
  traits_.has_optimization = true;
  traits_.optimization_note =
      "connected pattern ordering; per-pattern AggregateMessages rounds";
  traits_.partitioning = "Default";
  traits_.fragment = SparqlFragment::kBgp;
  traits_.contribution =
      "subgraph matching with Match Track tables maintained at vertices via "
      "sendMsg/mergeMsg";
}

Result<LoadStats> GraphxSmEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  stats_ = store.ComputeStatistics();
  int n = options_.num_partitions > 0 ? options_.num_partitions
                                      : sc_->config().default_parallelism;
  std::vector<Edge<rdf::TermId>> edges;
  edges.reserve(store.triples().size());
  for (const auto& t : store.triples()) {
    edges.push_back(Edge<rdf::TermId>{static_cast<VertexId>(t.s),
                                      static_cast<VertexId>(t.o), t.p});
  }
  graph_ = Graph<rdf::TermId, rdf::TermId>::FromEdges(
      sc_, std::move(edges), rdf::TermId{0}, n);
  using TermAttr = spark::graphx::VertexAttr<rdf::TermId>;
  graph_ = Graph<rdf::TermId, rdf::TermId>(
      graph_.vertices().Map([](const std::pair<VertexId, TermAttr>& kv) {
        return std::pair<VertexId, TermAttr>(
            kv.first,
            std::make_shared<const rdf::TermId>(
                static_cast<rdf::TermId>(kv.first)));
      }),
      graph_.edges());

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = graph_.NumVertices() + graph_.NumEdges();
  stats.stored_bytes = graph_.edges().MemoryFootprint() +
                       graph_.vertices().MemoryFootprint();
  return stats;
}

Result<plan::PlanPtr> GraphxSmEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }

  const rdf::Dictionary& dict = store_->dictionary();
  auto schema = std::make_shared<const VarSchema>(BgpSchema(bgp));
  size_t width = schema->vars().size();

  // Frontier payload: MT tables keyed by the vertex the partial paths end
  // at. The plan below threads it through one node per pattern.
  plan::PlanPtr root;
  std::string anchor;  // variable whose value keys the frontier ("" = none)
  VarSchema bound;
  bool initialized = false;

  for (size_t i : plan::OrderConnected(bgp, 0)) {
    const sparql::TriplePattern& tp = bgp[i];
    auto ep = std::make_shared<const EncodedPattern>(
        EncodePattern(dict, tp, *schema));
    const std::string svar = tp.s.is_variable() ? tp.s.var() : "";
    const std::string ovar = tp.o.is_variable() ? tp.o.var() : "";

    if (tp.Variables().empty()) {
      // Fully constant pattern: existence check only.
      bool exists = false;
      if (!ep->impossible) {
        exists = store_->Contains(
            rdf::EncodedTriple{*ep->ids.s, *ep->ids.p, *ep->ids.o});
      }
      if (!exists) {
        return plan::ConstantResultPlan(
            sparql::BindingTable(schema->vars()), "constant pattern absent");
      }
      continue;
    }

    if (!initialized) {
      // First pattern: seed the MT tables from the raw edge matches.
      bool anchor_at_dst = !ovar.empty();
      root = plan::MakeScan(
          plan::NodeKind::kPatternScan, plan::AccessPath::kGraphTraversal,
          tp.ToString() + " (seed)", PredicateCount(dict, stats_, tp),
          [this, ep, width, anchor_at_dst](
              std::vector<plan::PlanPayload>) -> Result<plan::PlanPayload> {
            auto seeded = graph_.edges().FlatMap(
                [ep, width, anchor_at_dst](const Edge<rdf::TermId>& e) {
                  std::vector<std::pair<VertexId, Mt>> out;
                  rdf::EncodedTriple t{static_cast<rdf::TermId>(e.src),
                                       e.attr,
                                       static_cast<rdf::TermId>(e.dst)};
                  Mt one(width);
                  if (AppendMatch(*ep, t, {}, &one)) {
                    out.emplace_back(anchor_at_dst ? e.dst : e.src,
                                     std::move(one));
                  }
                  return out;
                });
            return plan::PlanPayload(seeded.ReduceByKey(ConcatMt));
          });
      AnnotateScan(tp, PatternScanBound(dict, stats_, tp), root.get());
      anchor = anchor_at_dst ? ovar : svar;
      initialized = true;
      for (const auto& v : tp.Variables()) bound.Add(v);
      continue;
    }

    // Pick the travel direction: forward if the subject is already bound,
    // backward if the object is. Re-anchor the frontier when needed.
    bool forward;
    std::string need;  // variable the frontier must be keyed by
    if (!svar.empty() && bound.IndexOf(svar) >= 0) {
      forward = true;
      need = svar;
    } else if (!ovar.empty() && bound.IndexOf(ovar) >= 0) {
      forward = false;
      need = ovar;
    } else if (!tp.s.is_variable() || !tp.o.is_variable()) {
      // Constant endpoint, disconnected from the current frontier: match
      // the pattern standalone and merge by cartesian below.
      forward = !tp.s.is_variable() ? true : false;
      need.clear();
    } else {
      forward = true;
      need.clear();
    }

    int reanchor_idx = -1;
    if (!need.empty() && need != anchor) {
      reanchor_idx = schema->IndexOf(need);
      anchor = need;
    }

    if (need.empty()) {
      // Disconnected pattern: standalone matches, cartesian merge.
      plan::PlanPtr leaf = plan::MakeScan(
          plan::NodeKind::kPatternScan, plan::AccessPath::kGraphTraversal,
          tp.ToString(), PredicateCount(dict, stats_, tp),
          [this, ep, width](std::vector<plan::PlanPayload>)
              -> Result<plan::PlanPayload> {
            return plan::PlanPayload(graph_.edges().MapPartitionsWithIndex(
                [ep, width](int, const std::vector<Edge<rdf::TermId>>& in) {
                  sparql::IdTable out(width);
                  for (const Edge<rdf::TermId>& e : in) {
                    AppendMatch(*ep,
                                rdf::EncodedTriple{
                                    static_cast<rdf::TermId>(e.src), e.attr,
                                    static_cast<rdf::TermId>(e.dst)},
                                {}, &out);
                  }
                  return std::vector<sparql::IdTable>{std::move(out)};
                }));
          });
      AnnotateScan(tp, PatternScanBound(dict, stats_, tp), leaf.get());
      root = plan::MakeBinary(
          plan::NodeKind::kCartesianProduct, "merge match-tracks",
          std::move(root), std::move(leaf),
          [this](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto frontier = std::get<Rdd<std::pair<VertexId, Mt>>>(
                std::move(in[0]));
            auto rows = std::get<Rdd<sparql::IdTable>>(std::move(in[1]));
            auto* sc = sc_;
            // Batch-major merge: the per-element path emitted one message
            // per (frontier entry, standalone row) pair; concatenating over
            // the batch's rows in order yields the same per-vertex sequence
            // after ReduceByKey.
            auto crossed = frontier.Cartesian(rows).FlatMap(
                [sc](const std::pair<std::pair<VertexId, Mt>,
                                     sparql::IdTable>& ab) {
                  std::vector<std::pair<VertexId, Mt>> out;
                  const Mt& table = ab.first.second;
                  const sparql::IdTable& batch = ab.second;
                  sc->ChargeJoinComparisons(table.size() * batch.size());
                  Mt merged_rows(table.width());
                  for (size_t j = 0; j < batch.size(); ++j) {
                    for (size_t i = 0; i < table.size(); ++i) {
                      MergeRowsInto(table.row(i), batch.row(j), &merged_rows);
                    }
                  }
                  if (!merged_rows.empty()) {
                    out.emplace_back(ab.first.first, std::move(merged_rows));
                  }
                  return out;
                });
            return plan::PlanPayload(crossed.ReduceByKey(ConcatMt));
          });
      for (const auto& v : tp.Variables()) bound.Add(v);
      continue;
    }

    // One AggregateMessages round: install MT tables at the anchor
    // vertices, forward extended rows along matching edges.
    std::string detail =
        std::string("aggregateMessages ") + (forward ? "forward" : "backward");
    if (reanchor_idx >= 0) detail += " (re-anchor ?" + need + ")";
    plan::PlanPtr leaf = plan::MakeScan(
        plan::NodeKind::kPatternScan, plan::AccessPath::kGraphTraversal,
        tp.ToString(), PredicateCount(dict, stats_, tp), nullptr);
    AnnotateScan(tp, PatternScanBound(dict, stats_, tp), leaf.get());
    root = plan::MakeBinary(
        plan::NodeKind::kPartitionedHashJoin, detail, std::move(root),
        std::move(leaf),
        [this, ep, forward, reanchor_idx](
            std::vector<plan::PlanPayload> in) -> Result<plan::PlanPayload> {
          auto frontier = std::get<Rdd<std::pair<VertexId, Mt>>>(
              std::move(in[0]));
          if (reanchor_idx >= 0) {
            int idx = reanchor_idx;
            frontier = frontier
                           .FlatMap([idx](const std::pair<VertexId, Mt>& kv) {
                             std::vector<std::pair<VertexId, Mt>> out;
                             for (size_t r = 0; r < kv.second.size(); ++r) {
                               Mt one(kv.second.width());
                               one.AppendRowFrom(kv.second, r);
                               out.emplace_back(
                                   static_cast<VertexId>(kv.second.cell(
                                       r, static_cast<size_t>(idx))),
                                   std::move(one));
                             }
                             return out;
                           })
                           .ReduceByKey(ConcatMt);
          }
          auto installed = graph_.OuterJoinVertices(
              frontier, [](VertexId, const rdf::TermId& term,
                           const std::optional<Mt>& table) {
                return VAttr(term, table.value_or(Mt{}));
              });
          auto msgs = installed.AggregateMessages<Mt>(
              [ep, forward](const EdgeTriplet<VAttr, rdf::TermId>& t) {
                std::vector<std::pair<VertexId, Mt>> out;
                const Mt& source_table =
                    forward ? t.src_attr->second : t.dst_attr->second;
                if (source_table.empty()) return out;
                rdf::EncodedTriple triple{static_cast<rdf::TermId>(t.src),
                                          t.attr,
                                          static_cast<rdf::TermId>(t.dst)};
                if (!MatchesConstants(*ep, triple)) return out;
                Mt extended(source_table.width());
                for (size_t r = 0; r < source_table.size(); ++r) {
                  AppendMatch(*ep, triple, source_table.row(r), &extended);
                }
                if (!extended.empty()) {
                  out.emplace_back(forward ? t.dst : t.src,
                                   std::move(extended));
                }
                return out;
              },
              ConcatMt);
          return plan::PlanPayload(msgs);
        });
    root->key_vars = {need};
    anchor = forward ? ovar : svar;  // may be "" when the far end is const
    for (const auto& v : tp.Variables()) bound.Add(v);
  }

  if (!initialized) {
    // Only constant patterns, all present: one all-unbound row.
    sparql::IdTable rows(width);
    rows.AppendRowFilled(sparql::kUnbound);
    return plan::ConstantResultPlan(ToBindingTable(*schema, std::move(rows)),
                                    "constant-only BGP");
  }

  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, VarsDetail(schema->vars()), std::move(root),
      [schema, width](std::vector<plan::PlanPayload> in)
          -> Result<plan::PlanPayload> {
        auto frontier =
            std::get<Rdd<std::pair<VertexId, Mt>>>(std::move(in[0]));
        sparql::IdTable rows(width);
        for (auto& [v, table] : frontier.Collect()) {
          if (table.empty()) continue;
          rows.AppendRowsFrom(table);
        }
        return plan::PlanPayload(ToBindingTable(*schema, std::move(rows)));
      });
  project->key_vars = schema->vars();
  return project;
}

}  // namespace rdfspark::systems
