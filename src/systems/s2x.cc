#include "systems/s2x.h"

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "systems/batch.h"
#include "systems/plan/planner_utils.h"

namespace rdfspark::systems {

using spark::graphx::Edge;
using spark::graphx::Graph;
using spark::graphx::VertexId;

S2xEngine::S2xEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = "S2X";
  traits_.citation =
      "[23] Schatzle, Przyjaciel-Zablocki, Berberich, Lausen — Big-O(Q) 2015";
  traits_.data_model = DataModel::kGraph;
  traits_.abstractions = {SparkAbstraction::kGraphX};
  traits_.query_processing = "Graph Iterations";
  traits_.has_optimization = false;
  traits_.optimization_note = "no cost-based optimization; fixpoint pruning";
  traits_.partitioning = "Default";
  traits_.fragment = SparqlFragment::kBgpPlus;
  traits_.contribution =
      "combines graph-parallel BGP matching with data-parallel evaluation "
      "of the remaining operators";
}

Result<LoadStats> S2xEngine::Load(const rdf::TripleStore& store) {
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
  // Vertex attribute = the term id itself.
  using TermAttr = spark::graphx::VertexAttr<rdf::TermId>;
  graph_ = Graph<rdf::TermId, rdf::TermId>(
      graph_.vertices().Map([](const std::pair<VertexId, TermAttr>& kv) {
        return std::pair<VertexId, TermAttr>(
            kv.first,
            std::make_shared<const rdf::TermId>(
                static_cast<rdf::TermId>(kv.first)));
      }),
      graph_.edges());
  uint64_t nv = graph_.NumVertices();
  uint64_t ne = graph_.NumEdges();

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = nv + ne;
  stats.stored_bytes = graph_.edges().MemoryFootprint() +
                       graph_.vertices().MemoryFootprint();
  return stats;
}

namespace {

/// Per-pattern edge matches with variable bindings. Row schema is the BGP's
/// VarSchema; subject/object values kept for candidate pruning.
struct PatternMatches {
  sparql::IdTable rows;
  std::vector<std::pair<rdf::TermId, rdf::TermId>> endpoints;  // (s, o)
  /// Set when the pattern's scan has handed `rows` on: a plan runs once.
  bool spent = false;
};

/// Deferred graph-parallel matching state, shared by all scan nodes of one
/// plan: the first scan executed runs the per-pattern matching and the
/// candidate-validation fixpoint for the whole BGP (Steps 1 and 2), later
/// scans just pick up their pruned match sets.
struct MatchState {
  bool ready = false;
  std::vector<PatternMatches> matches;
};

}  // namespace

Result<plan::PlanPtr> S2xEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("S2X: Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }

  const rdf::Dictionary& dict = store_->dictionary();
  auto schema = std::make_shared<const VarSchema>(BgpSchema(bgp));
  size_t width = schema->vars().size();
  auto bgp_copy =
      std::make_shared<const std::vector<sparql::TriplePattern>>(bgp);
  auto state = std::make_shared<MatchState>();

  // Steps 1 + 2, run once on first scan execution.
  auto ensure_matched = std::make_shared<std::function<void()>>(
      [this, state, bgp_copy, schema, width]() {
        if (state->ready) return;
        state->ready = true;
        const auto& bgp = *bgp_copy;

        // Step 1: match every triple pattern independently against all
        // edges (graph-parallel over the triplets view).
        auto& matches = state->matches;
        matches.resize(bgp.size());
        for (auto& m : matches) m.rows = sparql::IdTable(width);
        for (size_t i = 0; i < bgp.size(); ++i) {
          auto ep = std::make_shared<const EncodedPattern>(
              EncodePattern(store_->dictionary(), bgp[i], *schema));
          // The match row stays a std::vector: Collect charges the
          // estimated size of this tuple.
          using MatchTuple =
              std::tuple<rdf::TermId, rdf::TermId, std::vector<rdf::TermId>>;
          auto rdd = graph_.edges().FlatMap(
              [ep, width](const Edge<rdf::TermId>& e) {
                std::vector<MatchTuple> out;
                rdf::EncodedTriple t{static_cast<rdf::TermId>(e.src), e.attr,
                                     static_cast<rdf::TermId>(e.dst)};
                if (MatchesConstants(*ep, t)) {
                  std::vector<rdf::TermId> row(width, sparql::kUnbound);
                  if (ExtendRowCells(*ep, t, row.data())) {
                    out.emplace_back(t.s, t.o, std::move(row));
                  }
                }
                return out;
              });
          for (auto& [s, o, row] : rdd.Collect()) {
            matches[i].endpoints.emplace_back(s, o);
            matches[i].rows.AppendRow(row);
          }
        }

        // Step 2: iterative validation of match candidates. A vertex stays
        // a candidate for variable x only if every pattern mentioning x
        // retains a match with this vertex in x's position; matches whose
        // endpoint lost candidacy are discarded. Messages = surviving
        // matches per round.
        std::unordered_map<std::string, std::unordered_set<rdf::TermId>>
            cand;
        auto var_of =
            [](const sparql::PatternTerm& t) -> const std::string* {
          return t.is_variable() ? &t.var() : nullptr;
        };
        // Initial local match sets.
        for (size_t i = 0; i < bgp.size(); ++i) {
          const std::string* sv = var_of(bgp[i].s);
          const std::string* ov = var_of(bgp[i].o);
          for (const auto& [s, o] : matches[i].endpoints) {
            if (sv) cand[*sv].insert(s);
            if (ov) cand[*ov].insert(o);
          }
        }
        int iterations = 0;
        bool changed = true;
        while (changed && iterations < options_.max_iterations) {
          changed = false;
          ++iterations;
          sc_->RecordSuperstep();
          // Filter matches by current candidates; rebuild candidate sets.
          std::unordered_map<std::string, std::unordered_set<rdf::TermId>>
              next;
          std::unordered_map<std::string, bool> initialized;
          for (size_t i = 0; i < bgp.size(); ++i) {
            const std::string* sv = var_of(bgp[i].s);
            const std::string* ov = var_of(bgp[i].o);
            sparql::IdTable kept_rows(width);
            std::vector<std::pair<rdf::TermId, rdf::TermId>> kept_eps;
            std::unordered_set<rdf::TermId> s_here, o_here;
            for (size_t m = 0; m < matches[i].endpoints.size(); ++m) {
              auto [s, o] = matches[i].endpoints[m];
              if (sv && !cand[*sv].contains(s)) continue;
              if (ov && !cand[*ov].contains(o)) continue;
              kept_rows.AppendRowFrom(matches[i].rows, m);
              kept_eps.emplace_back(s, o);
              if (sv) s_here.insert(s);
              if (ov) o_here.insert(o);
              sc_->RecordMessages(1);  // local match sent to neighbors
            }
            if (kept_rows.size() != matches[i].rows.size()) changed = true;
            matches[i].rows = std::move(kept_rows);
            matches[i].endpoints = std::move(kept_eps);
            // Candidates for a variable: intersection over patterns using
            // it.
            auto merge = [&](const std::string& var,
                             std::unordered_set<rdf::TermId>& here) {
              if (!initialized[var]) {
                next[var] = std::move(here);
                initialized[var] = true;
              } else {
                std::unordered_set<rdf::TermId> inter;
                for (rdf::TermId v : next[var]) {
                  if (here.contains(v)) inter.insert(v);
                }
                next[var] = std::move(inter);
              }
            };
            if (sv) merge(*sv, s_here);
            if (ov) merge(*ov, o_here);
          }
          for (auto& [var, set] : next) {
            if (set.size() != cand[var].size()) changed = true;
          }
          cand = std::move(next);
        }
        last_iterations_.store(iterations, std::memory_order_relaxed);
      });

  // Scan node for pattern i: the validated (pruned) match set, parallelized
  // for the data-parallel assembly joins.
  auto scan = [&](size_t i) {
    auto node = plan::MakeScan(
        plan::NodeKind::kPatternScan, plan::AccessPath::kGraphTraversal,
        bgp[i].ToString() + " (pruned)", PredicateCount(dict, stats_, bgp[i]),
        [this, state, ensure_matched, i](std::vector<plan::PlanPayload>)
            -> Result<plan::PlanPayload> {
          (*ensure_matched)();
          PatternMatches& matches = state->matches[i];
          if (matches.spent) {
            return Status::InvalidArgument(
                "S2X plans are single-use: this plan already ran; plan the "
                "query again");
          }
          matches.spent = true;
          return plan::PlanPayload(
              ParallelizeBatch(sc_, std::move(matches.rows),
                               sc_->config().default_parallelism));
        });
    // Pruning only shrinks the match set; the pattern bound still caps it.
    AnnotateScan(bgp[i], PatternScanBound(dict, stats_, bgp[i]), node.get());
    return node;
  };

  // Step 3: assemble the final output from the per-pattern subgraphs with
  // data-parallel joins, each next pattern the first one connected to the
  // rows so far.
  std::vector<size_t> order = plan::OrderConnected(bgp, 0);
  std::vector<sparql::TriplePattern> ordered;
  for (size_t i : order) ordered.push_back(bgp[i]);
  return plan::BatchJoinChain(sc_, schema, ordered,
                              [&](size_t k) { return scan(order[k]); });
}

}  // namespace rdfspark::systems
