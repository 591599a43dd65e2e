#include "systems/sparkql.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "systems/batch.h"
#include "systems/plan/planner_utils.h"

namespace rdfspark::systems {

using spark::Rdd;
using spark::graphx::Edge;
using spark::graphx::EdgeTriplet;
using spark::graphx::Graph;
using spark::graphx::VertexId;

uint64_t EstimateSize(const SparkqlNode& n) {
  return 8 + n.data_properties.size() * 16 + n.types.size() * 8;
}

namespace {

/// Per-vertex sub-result table, stored as one flat fixed-width batch.
using Mt = sparql::IdTable;
/// A vertex as the graph holds it: one shared, immutable node.
using NodeAttr = spark::graphx::VertexAttr<SparkqlNode>;

}  // namespace

SparkqlEngine::SparkqlEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = "Spar(k)ql";
  traits_.citation = "[12] Gombos, Racz, Kiss — FiCloud Workshops 2016";
  traits_.data_model = DataModel::kGraph;
  traits_.abstractions = {SparkAbstraction::kGraphX};
  traits_.query_processing = "Graph Iterations";
  traits_.has_optimization = true;
  traits_.optimization_note = "BFS query-plan tree, bottom-up evaluation";
  traits_.partitioning = "Default";
  traits_.fragment = SparqlFragment::kBgp;
  traits_.contribution =
      "node model storing data properties (and rdf:type) inside vertices; "
      "vertex programs with sub-result tables";
}

plan::EngineProfile SparkqlEngine::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits_.name;
  // The node model stores data properties and rdf:type inside the vertex,
  // so LocalStarMatch over node-local patterns never shuffles.
  profile.star_local_layout = true;
  return profile;
}

Result<LoadStats> SparkqlEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  stats_ = store.ComputeStatistics();
  int n = options_.num_partitions > 0 ? options_.num_partitions
                                      : sc_->config().default_parallelism;

  auto type_id = store.TypePredicate();
  has_type_predicate_ = type_id.has_value();
  if (has_type_predicate_) type_predicate_ = *type_id;

  // A predicate is a data property iff every object is a literal.
  std::unordered_map<rdf::TermId, bool> all_literal;
  for (const auto& t : store.triples()) {
    auto term = store.dictionary().Decode(t.o);
    bool literal = term.ok() && term->is_literal();
    auto it = all_literal.find(t.p);
    if (it == all_literal.end()) {
      all_literal[t.p] = literal;
    } else {
      it->second = it->second && literal;
    }
  }
  data_predicates_.clear();
  for (const auto& [p, literal] : all_literal) {
    if (literal && !(has_type_predicate_ && p == type_predicate_)) {
      data_predicates_.insert(p);
    }
  }

  // Split triples into node properties and object-property edges.
  std::unordered_map<VertexId, SparkqlNode> nodes;
  auto node_of = [&](rdf::TermId id) -> SparkqlNode& {
    auto [it, inserted] = nodes.emplace(static_cast<VertexId>(id),
                                        SparkqlNode{});
    if (inserted) it->second.term = id;
    return it->second;
  };
  std::vector<Edge<rdf::TermId>> edges;
  for (const auto& t : store.triples()) {
    if (has_type_predicate_ && t.p == type_predicate_) {
      node_of(t.s).types.push_back(t.o);
      node_of(t.o);  // classes are nodes too (type queries bind them)
    } else if (data_predicates_.contains(t.p)) {
      node_of(t.s).data_properties.emplace_back(t.p, t.o);
    } else {
      edges.push_back(Edge<rdf::TermId>{static_cast<VertexId>(t.s),
                                        static_cast<VertexId>(t.o), t.p});
      node_of(t.s);
      node_of(t.o);
    }
  }
  std::vector<std::pair<VertexId, NodeAttr>> vertex_list;
  vertex_list.reserve(nodes.size());
  for (auto& [id, node] : nodes) {
    vertex_list.emplace_back(
        id, std::make_shared<const SparkqlNode>(std::move(node)));
  }
  graph_ = Graph<SparkqlNode, rdf::TermId>(
      Parallelize(sc_, std::move(vertex_list), n),
      Parallelize(sc_, std::move(edges), n));

  num_vertices_ = graph_.NumVertices();

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = graph_.NumVertices() + graph_.NumEdges();
  stats.stored_bytes = graph_.vertices().MemoryFootprint() +
                       graph_.edges().MemoryFootprint();
  return stats;
}

Result<plan::PlanPtr> SparkqlEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }
  const rdf::Dictionary& dict = store_->dictionary();

  // Rewrite: constant subjects/objects of object-property patterns become
  // synthetic variables with forced bindings, so the plan tree is purely
  // over variables.
  std::vector<sparql::TriplePattern> rewritten;
  std::unordered_map<std::string, rdf::TermId> forced;
  int synth_counter = 0;
  bool impossible = false;
  auto as_var = [&](const sparql::PatternTerm& t) -> sparql::PatternTerm {
    if (t.is_variable()) return t;
    auto id = dict.Lookup(t.term());
    std::string name = "__c" + std::to_string(synth_counter++);
    if (id.ok()) {
      forced[name] = *id;
    } else {
      impossible = true;
    }
    return sparql::PatternTerm::Var(name);
  };

  // Classify patterns. Any variable predicate forces the generic fallback
  // (the node model needs bound predicates to route to node vs edge data).
  bool any_pvar = false;
  for (const auto& tp : bgp) any_pvar |= tp.p.is_variable();

  VarSchema schema;
  // Local patterns per variable; edge patterns across variables.
  struct EdgePattern {
    std::string src_var;
    std::string dst_var;
    rdf::TermId predicate;
    sparql::TriplePattern source;
  };
  std::vector<EdgePattern> edge_patterns;
  std::unordered_map<std::string, std::vector<sparql::TriplePattern>> local;

  if (!any_pvar) {
    for (const auto& tp : bgp) {
      auto pid = dict.Lookup(tp.p.term());
      if (!pid.ok()) {
        impossible = true;
        continue;
      }
      bool is_type = has_type_predicate_ && *pid == type_predicate_;
      bool is_data = data_predicates_.contains(*pid);
      if (is_type || is_data) {
        // Node-local: subject may still be constant.
        sparql::TriplePattern p = tp;
        p.s = as_var(tp.s);
        local[p.s.var()].push_back(p);
        for (const auto& v : p.Variables()) schema.Add(v);
      } else {
        sparql::TriplePattern p = tp;
        p.s = as_var(tp.s);
        p.o = as_var(tp.o);
        edge_patterns.push_back(
            EdgePattern{p.s.var(), p.o.var(), *pid, p});
        for (const auto& v : p.Variables()) schema.Add(v);
      }
    }
  }

  if (impossible) {
    return plan::ConstantResultPlan(sparql::BindingTable(BgpSchema(bgp).vars()),
                                    "impossible pattern");
  }

  if (any_pvar) {
    // Generic fallback over "virtual triples" (edges + node properties).
    // The virtual-triple RDD is built once here (lazily) and shared by all
    // scan execs, preserving the original single lineage.
    auto all_schema = std::make_shared<const VarSchema>(BgpSchema(bgp));
    size_t width = all_schema->vars().size();
    bool has_type = has_type_predicate_;
    rdf::TermId type_pred = type_predicate_;
    auto virtual_triples =
        graph_.edges()
            .Map([](const Edge<rdf::TermId>& e) {
              return rdf::EncodedTriple{static_cast<rdf::TermId>(e.src),
                                        e.attr,
                                        static_cast<rdf::TermId>(e.dst)};
            })
            .Union(graph_.vertices().FlatMap(
                [has_type, type_pred](const std::pair<VertexId, NodeAttr>& kv) {
                  const SparkqlNode& node = *kv.second;
                  std::vector<rdf::EncodedTriple> out;
                  for (const auto& [p, v] : node.data_properties) {
                    out.push_back(rdf::EncodedTriple{node.term, p, v});
                  }
                  if (has_type) {
                    for (rdf::TermId c : node.types) {
                      out.push_back(
                          rdf::EncodedTriple{node.term, type_pred, c});
                    }
                  }
                  return out;
                }));

    return plan::BatchJoinChain(sc_, all_schema, bgp, [&](size_t i) {
      const sparql::TriplePattern& tp = bgp[i];
      auto ep = std::make_shared<const EncodedPattern>(
          EncodePattern(dict, tp, *all_schema));
      auto node = plan::MakeScan(
          plan::NodeKind::kPatternScan, plan::AccessPath::kFullScan,
          tp.ToString() + " (virtual triples)",
          PredicateCount(dict, stats_, tp),
          [virtual_triples, ep, width](
              std::vector<plan::PlanPayload>) -> Result<plan::PlanPayload> {
            return plan::PlanPayload(virtual_triples.MapPartitionsWithIndex(
                [ep, width](int, const std::vector<rdf::EncodedTriple>& in) {
                  sparql::IdTable out(width);
                  for (const rdf::EncodedTriple& t : in) {
                    AppendMatch(*ep, t, {}, &out);
                  }
                  return std::vector<sparql::IdTable>{std::move(out)};
                }));
          });
      // Virtual triples reconstruct the store one triple per original
      // (edges + data properties + types), so the store-level cap holds.
      AnnotateScan(tp, PatternScanBound(dict, stats_, tp), node.get());
      return node;
    });
  }

  size_t width = schema.vars().size();
  auto schema_copy = std::make_shared<const VarSchema>(schema);

  // Variables participating in the plan.
  std::vector<std::string> all_vars;
  for (const auto& [v, ps] : local) {
    if (std::find(all_vars.begin(), all_vars.end(), v) == all_vars.end()) {
      all_vars.push_back(v);
    }
  }
  for (const auto& e : edge_patterns) {
    for (const auto& v : {e.src_var, e.dst_var}) {
      if (std::find(all_vars.begin(), all_vars.end(), v) == all_vars.end()) {
        all_vars.push_back(v);
      }
    }
  }
  std::sort(all_vars.begin(), all_vars.end());

  // Local candidate tables: vertices satisfying the variable's node-local
  // patterns, with literal/class variables bound.
  auto candidates = [&](const std::string& var) -> plan::PlanPtr {
    auto patterns = std::make_shared<const std::vector<sparql::TriplePattern>>(
        local.contains(var) ? local.at(var)
                         : std::vector<sparql::TriplePattern>{});
    // Encode constants of the local patterns.
    auto encoded = std::make_shared<std::vector<EncodedPattern>>();
    for (const auto& p : *patterns) {
      encoded->push_back(EncodePattern(dict, p, schema));
    }
    std::optional<rdf::TermId> force;
    auto fit = forced.find(var);
    if (fit != forced.end()) force = fit->second;
    int var_idx = schema.IndexOf(var);
    bool has_type = has_type_predicate_;
    rdf::TermId type_pred = type_predicate_;
    auto match_vertex =
        [encoded, width, var_idx, force, has_type,
         type_pred](const std::pair<VertexId, NodeAttr>& kv) {
          std::vector<std::pair<VertexId, Mt>> out;
          const SparkqlNode& node = *kv.second;
          if (force && node.term != *force) return out;
          Mt rows(width);
          rows.AppendRowFilled(sparql::kUnbound);
          if (var_idx >= 0) {
            rows.mutable_row(0)[static_cast<size_t>(var_idx)] = node.term;
          }
          Mt next(width);
          for (const EncodedPattern& ep : *encoded) {
            if (ep.impossible) return out;
            // Enumerate this node's matching property triples.
            std::vector<rdf::EncodedTriple> triples;
            bool is_type = has_type && ep.ids.p &&
                           *ep.ids.p == type_pred;
            if (is_type) {
              for (rdf::TermId c : node.types) {
                triples.push_back(
                    rdf::EncodedTriple{node.term, type_pred, c});
              }
            } else {
              for (const auto& [dp, dv] : node.data_properties) {
                triples.push_back(rdf::EncodedTriple{node.term, dp, dv});
              }
            }
            next.Clear();
            for (size_t r = 0; r < rows.size(); ++r) {
              for (const auto& t : triples) {
                AppendMatch(ep, t, rows.row(r), &next);
              }
            }
            std::swap(rows, next);
            if (rows.empty()) return out;
          }
          out.emplace_back(kv.first, std::move(rows));
          return out;
        };
    auto node = plan::MakeScan(
        plan::NodeKind::kLocalStarMatch, plan::AccessPath::kSubjectStar,
        "?" + var + " (" + std::to_string(patterns->size()) +
            " local patterns)",
        force ? 1 : plan::kNoEstimate,
        [this, match_vertex](std::vector<plan::PlanPayload>)
            -> Result<plan::PlanPayload> {
          return plan::PlanPayload(graph_.vertices().FlatMap(match_vertex));
        });
    VarSchema leaf_vars;
    leaf_vars.Add(var);
    for (const auto& p : *patterns) {
      for (const auto& v : p.Variables()) leaf_vars.Add(v);
    }
    node->out_vars = leaf_vars.vars();
    node->subject_var = var;
    // A patternless candidate table emits one base row per vertex; with
    // local patterns the star bound applies (a forced constant still
    // matches at most one vertex, but the star bound already covers it).
    node->max_cardinality =
        patterns->empty()
            ? num_vertices_
            : StarScanBound(store_->dictionary(), stats_, *patterns);
    return node;
  };

  // Build the BFS plan tree over edge patterns, rooted at the most
  // connected variable.
  std::unordered_map<std::string, int> degree;
  for (const auto& e : edge_patterns) {
    ++degree[e.src_var];
    ++degree[e.dst_var];
  }
  std::vector<bool> pattern_used(edge_patterns.size(), false);

  // Plan one connected component rooted at `root`; its exec produces the
  // per-vertex tables for the component. Recursion over the BFS tree.
  std::unordered_map<std::string, bool> var_done;
  std::function<plan::PlanPtr(const std::string&)> plan_var =
      [&](const std::string& var) -> plan::PlanPtr {
    var_done[var] = true;
    plan::PlanPtr node = candidates(var);
    for (size_t i = 0; i < edge_patterns.size(); ++i) {
      if (pattern_used[i]) continue;
      const auto& e = edge_patterns[i];
      bool forward;  // child below, edge points parent -> child?
      std::string child;
      if (e.src_var == var && !var_done[e.dst_var]) {
        child = e.dst_var;
        forward = true;  // pattern (var p child): edges var -> child
      } else if (e.dst_var == var && !var_done[e.src_var]) {
        child = e.src_var;
        forward = false;  // pattern (child p var): edges child -> var
      } else {
        continue;
      }
      pattern_used[i] = true;
      auto child_plan = plan_var(child);
      rdf::TermId pid = e.predicate;
      node = plan::MakeBinary(
          plan::NodeKind::kPartitionedHashJoin,
          "vertex-message " + e.source.ToString(), std::move(node),
          std::move(child_plan),
          [this, pid, forward](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto table = std::get<Rdd<std::pair<VertexId, Mt>>>(
                std::move(in[0]));
            auto child_table = std::get<Rdd<std::pair<VertexId, Mt>>>(
                std::move(in[1]));
            // Ship child tables to the parent along the pattern's edges.
            auto installed = graph_.OuterJoinVertices(
                child_table, [](VertexId, const SparkqlNode& node,
                                const std::optional<Mt>& t) {
                  return std::pair<SparkqlNode, Mt>(node, t.value_or(Mt{}));
                });
            auto msgs = installed.AggregateMessages<Mt>(
                [pid, forward](
                    const EdgeTriplet<std::pair<SparkqlNode, Mt>,
                                      rdf::TermId>& t) {
                  std::vector<std::pair<VertexId, Mt>> out;
                  if (t.attr != pid) return out;
                  // forward: parent=src receives from child=dst.
                  const Mt& source =
                      forward ? t.dst_attr->second : t.src_attr->second;
                  if (source.empty()) return out;
                  out.emplace_back(forward ? t.src : t.dst, source);
                  return out;
                },
                ConcatMt);
            // Combine: per-vertex product of current rows and child rows.
            table = table.Join(msgs).MapValues(
                [](const std::pair<Mt, Mt>& ab) {
                  Mt merged(ab.first.width());
                  for (size_t i = 0; i < ab.first.size(); ++i) {
                    for (size_t j = 0; j < ab.second.size(); ++j) {
                      MergeRowsInto(ab.first.row(i), ab.second.row(j),
                                    &merged);
                    }
                  }
                  return merged;
                });
            table = table.Filter([](const std::pair<VertexId, Mt>& kv) {
              return !kv.second.empty();
            });
            return plan::PlanPayload(std::move(table));
          });
      node->est_cardinality = PredicateCount(dict, stats_, e.source);
      node->key_vars = {e.src_var, e.dst_var};
    }
    return node;
  };

  // Components in decreasing connectivity order.
  plan::PlanPtr current;
  while (true) {
    std::string root;
    int best_degree = -1;
    for (const auto& v : all_vars) {
      if (var_done[v]) continue;
      int d = degree.contains(v) ? degree[v] : 0;
      if (d > best_degree) {
        best_degree = d;
        root = v;
      }
    }
    if (root.empty()) break;
    auto component = plan::MakeUnary(
        plan::NodeKind::kProject, "flatten ?" + root + " tables",
        plan_var(root),
        [width](std::vector<plan::PlanPayload> in)
            -> Result<plan::PlanPayload> {
          auto table = std::get<Rdd<std::pair<VertexId, Mt>>>(std::move(in[0]));
          return plan::PlanPayload(table.MapPartitionsWithIndex(
              [width](int,
                      const std::vector<std::pair<VertexId, Mt>>& part) {
                sparql::IdTable out(width);
                for (const auto& kv : part) {
                  if (kv.second.empty()) continue;
                  out.AppendRowsFrom(kv.second);
                }
                return std::vector<sparql::IdTable>{std::move(out)};
              }));
        });
    if (current == nullptr) {
      current = std::move(component);
    } else {
      current = plan::MakeBinary(
          plan::NodeKind::kCartesianProduct, "merge-rows",
          std::move(current), std::move(component),
          [this, width](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto a = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
            auto b = std::get<Rdd<sparql::IdTable>>(std::move(in[1]));
            return plan::PlanPayload(CartesianMergeBatches(sc_, a, b, width));
          });
    }
  }
  if (current == nullptr) {
    return plan::ConstantResultPlan(sparql::BindingTable(schema.vars()),
                                    "empty plan");
  }

  // Closing (non-tree) patterns: verify edge existence.
  for (size_t i = 0; i < edge_patterns.size(); ++i) {
    if (pattern_used[i]) continue;
    const auto& e = edge_patterns[i];
    int a_idx = schema.IndexOf(e.src_var);
    int b_idx = schema.IndexOf(e.dst_var);
    rdf::TermId pid = e.predicate;
    current = plan::MakeUnary(
        plan::NodeKind::kFilter, "edge exists " + e.source.ToString(),
        std::move(current),
        [this, a_idx, b_idx, pid, width](std::vector<plan::PlanPayload> in)
            -> Result<plan::PlanPayload> {
          using EdgeKey = std::pair<rdf::TermId, rdf::TermId>;
          auto rows = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
          auto pairs = graph_.edges().FlatMap(
              [pid](const Edge<rdf::TermId>& edge) {
                std::vector<std::pair<EdgeKey, bool>> out;
                if (edge.attr == pid) {
                  out.emplace_back(
                      std::make_pair(static_cast<rdf::TermId>(edge.src),
                                     static_cast<rdf::TermId>(edge.dst)),
                      true);
                }
                return out;
              });
          auto dist = pairs.Distinct();
          // Semi-join against the distinct edge set, batch-at-a-time:
          // rows route by the (src, dst) pair hash, the edge side by its
          // key — the same placements the keyed Join produced.
          int n = std::max(rows.node()->num_partitions(),
                           dist.node()->num_partitions());
          spark::PartitionerInfo info{"hash", n, 0};
          auto split = rows.MapPartitionsWithIndex(
              [a_idx, b_idx, n, width](
                  int, const std::vector<sparql::IdTable>& batches) {
                return SplitByTarget(
                    batches, n, width,
                    [a_idx, b_idx, n](const sparql::IdTable& batch,
                                      size_t r) {
                      EdgeKey key = std::make_pair(
                          batch.cell(r, static_cast<size_t>(a_idx)),
                          batch.cell(r, static_cast<size_t>(b_idx)));
                      return static_cast<int>(spark::HashValue(key) %
                                              static_cast<uint64_t>(n));
                    });
              });
          auto shuffled = split.ShuffleBy(SubBatchTarget<sparql::IdTable>, n,
                                          "PartitionByKey", info);
          auto merged = shuffled.MapPartitionsWithIndex(
              [width](int,
                      const std::vector<SubBatch<sparql::IdTable>>& in_parts) {
                return std::vector<sparql::IdTable>{
                    MergeSubBatches(in_parts, width)};
              },
              info);
          auto* sc = sc_;
          return plan::PlanPayload(merged.ZipPartitions(
              dist.PartitionByKey(n),
              [sc, a_idx, b_idx, width](
                  int, const std::vector<sparql::IdTable>& batches,
                  const std::vector<std::pair<EdgeKey, bool>>& edge_keys) {
                std::unordered_set<EdgeKey, spark::ValueHasher> present;
                present.reserve(edge_keys.size() * 2 + 1);
                for (const auto& kv : edge_keys) present.insert(kv.first);
                sparql::IdTable out(width);
                uint64_t comparisons = 0;
                for (const sparql::IdTable& batch : batches) {
                  for (size_t r = 0; r < batch.size(); ++r) {
                    ++comparisons;
                    EdgeKey key = std::make_pair(
                        batch.cell(r, static_cast<size_t>(a_idx)),
                        batch.cell(r, static_cast<size_t>(b_idx)));
                    if (present.contains(key)) out.AppendRowFrom(batch, r);
                  }
                }
                sc->ChargeJoinComparisons(comparisons);
                return std::vector<sparql::IdTable>{std::move(out)};
              }));
        });
    current->key_vars = {e.src_var};
    if (e.dst_var != e.src_var) current->key_vars.push_back(e.dst_var);
  }

  // Strip synthetic variables by projecting onto the real schema.
  auto real_vars =
      std::make_shared<const std::vector<std::string>>(BgpSchema(bgp).vars());
  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, VarsDetail(*real_vars), std::move(current),
      [schema_copy, real_vars, width](std::vector<plan::PlanPayload> in)
          -> Result<plan::PlanPayload> {
        auto rows = std::get<Rdd<sparql::IdTable>>(std::move(in[0]));
        auto table = ToBindingTable(*schema_copy, CollectRows(rows, width));
        return plan::PlanPayload(Project(table, *real_vars));
      });
  project->key_vars = *real_vars;
  return project;
}

}  // namespace rdfspark::systems
