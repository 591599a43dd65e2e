#include "systems/graphframes_engine.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "systems/plan/planner_utils.h"

namespace rdfspark::systems {

namespace sql = spark::sql;
using spark::graphframes::GraphFrame;
using sql::Col;
using sql::DataFrame;
using sql::Expr;
using sql::Lit;

GraphFramesEngine::GraphFramesEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = "GF-SPARQL";
  traits_.citation = "[4] Bahrami, Gulati, Abulaish — WI 2017";
  traits_.data_model = DataModel::kGraph;
  traits_.abstractions = {SparkAbstraction::kGraphFrames};
  traits_.query_processing = "Subgraph Matching";
  traits_.has_optimization = true;
  traits_.optimization_note =
      "predicate-frequency sub-query ordering + local search space pruning";
  traits_.partitioning = "Default";
  traits_.fragment = SparqlFragment::kBgp;
  traits_.contribution =
      "first efficient RDF processing over the GraphFrames API";
}

Result<LoadStats> GraphFramesEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  stats_ = store.ComputeStatistics();
  int n = options_.num_partitions > 0 ? options_.num_partitions
                                      : sc_->config().default_parallelism;

  // Nodelist and edgelist.
  std::unordered_set<rdf::TermId> node_ids;
  std::vector<sql::Row> edge_rows;
  for (const auto& t : store.triples()) {
    node_ids.insert(t.s);
    node_ids.insert(t.o);
    edge_rows.push_back(sql::Row{static_cast<int64_t>(t.s),
                                 static_cast<int64_t>(t.o),
                                 static_cast<int64_t>(t.p)});
  }
  std::vector<sql::Row> node_rows;
  node_rows.reserve(node_ids.size());
  for (rdf::TermId id : node_ids) {
    node_rows.push_back(sql::Row{static_cast<int64_t>(id)});
  }
  sql::Schema vschema{{sql::Field{"id", sql::DataType::kInt64}}};
  sql::Schema eschema{{sql::Field{"src", sql::DataType::kInt64},
                       sql::Field{"dst", sql::DataType::kInt64},
                       sql::Field{"rel", sql::DataType::kInt64}}};
  graph_ = GraphFrame(DataFrame::FromRows(sc_, vschema, node_rows, n),
                      DataFrame::FromRows(sc_, eschema, edge_rows, n));

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = node_rows.size() + edge_rows.size();
  stats.stored_bytes = graph_.vertices().EstimatedBytes() +
                       graph_.edges().EstimatedBytes();
  return stats;
}

Result<plan::PlanPtr> GraphFramesEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }
  const rdf::Dictionary& dict = store_->dictionary();

  // Sub-query ordering: non-descending predicate frequency, kept connected.
  auto frequency = [&](const sparql::TriplePattern& tp) -> uint64_t {
    return PredicateCount(dict, stats_, tp);
  };
  std::vector<sparql::TriplePattern> ordered =
      options_.enable_frequency_ordering
          ? plan::GreedyConnectedOrder(bgp, frequency)
          : bgp;

  // Local search space pruning: drop triples whose predicate is absent
  // from the BGP (only when all predicates are bound). The filter expression
  // is built here; the actual FilterEdges runs in the root exec.
  bool all_bound_predicates = true;
  for (const auto& tp : ordered) {
    all_bound_predicates &= !tp.p.is_variable();
  }
  bool do_prune = options_.enable_pruning && all_bound_predicates;
  Expr keep;
  if (do_prune) {
    for (const auto& tp : ordered) {
      auto id = dict.Lookup(tp.p.term());
      Expr eq = Col("rel") ==
                Lit(sql::Value(id.ok() ? static_cast<int64_t>(*id)
                                       : int64_t{-1}));
      keep = keep.valid() ? (keep || eq) : eq;
    }
  }

  // Motif construction: variables map to motif names; constants get fresh
  // names plus a post filter; repeated variables within a pattern get a
  // second name plus an equality filter.
  std::unordered_map<std::string, std::string> var_name;
  std::vector<std::pair<std::string, std::string>> var_column;  // var, column
  int name_counter = 0;
  std::vector<Expr> post_filters;
  GraphFrame::MotifOptions motif_options;
  std::string motif;

  // Reverse of var_name for motif vertex names: lets join nodes report
  // their keys as SPARQL variables rather than motif names.
  std::unordered_map<std::string, std::string> name_var;

  auto fresh = [&]() { return "m" + std::to_string(name_counter++); };
  auto vertex_name = [&](const sparql::PatternTerm& t,
                         const std::unordered_set<std::string>& taken)
      -> std::string {
    if (t.is_variable()) {
      auto it = var_name.find(t.var());
      if (it == var_name.end()) {
        std::string name = fresh();
        var_name.emplace(t.var(), name);
        name_var.emplace(name, t.var());
        var_column.emplace_back(t.var(), name);
        return name;
      }
      if (!taken.contains(it->second)) return it->second;
      // Same variable twice in one pattern: alias + equality filter.
      std::string alias = fresh();
      post_filters.push_back(Col(alias) == Col(it->second));
      return alias;
    }
    std::string name = fresh();
    auto id = dict.Lookup(t.term());
    // Constant vertices constrain the match as soon as the column exists.
    motif_options.vertex_predicates.emplace(
        name,
        Col(name) ==
            Lit(sql::Value(id.ok() ? static_cast<int64_t>(*id)
                                   : int64_t{-1})));
    return name;
  };

  plan::PlanPtr root;
  std::unordered_set<std::string> motif_names_seen;
  for (size_t i = 0; i < ordered.size(); ++i) {
    const auto& tp = ordered[i];
    std::unordered_set<std::string> taken;
    std::string s_name = vertex_name(tp.s, taken);
    taken.insert(s_name);
    std::string o_name = vertex_name(tp.o, taken);
    std::string e_name = "e" + std::to_string(i);
    std::string element = "(" + s_name + ")-[" + e_name + "]->(" + o_name +
                          ")";
    if (!motif.empty()) motif += "; ";
    motif += element;
    // Descriptive plan node per motif element; the matching itself is
    // monolithic (FindMotif in the root exec).
    auto leaf = plan::MakeScan(
        plan::NodeKind::kPatternScan, plan::AccessPath::kGraphTraversal,
        element + " " + tp.ToString() + (do_prune ? " (pruned)" : ""),
        frequency(tp), nullptr);
    AnnotateScan(tp, PatternScanBound(dict, stats_, tp), leaf.get());
    if (root == nullptr) {
      root = std::move(leaf);
    } else {
      std::vector<std::string> shared_names;
      if (motif_names_seen.contains(s_name)) shared_names.push_back(s_name);
      if (motif_names_seen.contains(o_name)) shared_names.push_back(o_name);
      if (shared_names.empty()) {
        root = plan::MakeBinary(plan::NodeKind::kCartesianProduct,
                                "disconnected motif", std::move(root),
                                std::move(leaf), nullptr);
      } else {
        std::string join_detail = "on";
        for (const auto& name : shared_names) join_detail += " " + name;
        root = plan::MakeBinary(plan::NodeKind::kPartitionedHashJoin,
                                join_detail, std::move(root), std::move(leaf),
                                nullptr);
        // Shared motif names always stand for variables (constants get a
        // fresh name per occurrence), so every name resolves.
        for (const auto& name : shared_names) {
          auto it = name_var.find(name);
          if (it != name_var.end()) root->key_vars.push_back(it->second);
        }
      }
    }
    motif_names_seen.insert(s_name);
    motif_names_seen.insert(o_name);
    if (tp.p.is_variable()) {
      const std::string column = e_name + ".rel";
      auto it = var_name.find(tp.p.var());
      if (it == var_name.end()) {
        var_name.emplace(tp.p.var(), column);
        var_column.emplace_back(tp.p.var(), column);
      } else {
        post_filters.push_back(Col(column) == Col(it->second));
      }
    } else {
      // Edge labels constrain the matching itself.
      auto id = dict.Lookup(tp.p.term());
      motif_options.edge_predicates.emplace(
          e_name,
          Col(e_name + ".rel") ==
              Lit(sql::Value(id.ok() ? static_cast<int64_t>(*id)
                                     : int64_t{-1})));
    }
  }

  std::vector<std::string> project_vars;
  for (const auto& [var, column] : var_column) project_vars.push_back(var);
  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, VarsDetail(project_vars), std::move(root),
      [this, do_prune, keep, motif, motif_options, post_filters, var_column](
          std::vector<plan::PlanPayload>) -> Result<plan::PlanPayload> {
        GraphFrame graph = graph_;
        if (do_prune) graph = graph.FilterEdges(keep);
        RDFSPARK_ASSIGN_OR_RETURN(DataFrame result,
                                  graph.FindMotif(motif, motif_options));
        for (const Expr& f : post_filters) result = result.Filter(f);

        // Project variable columns and convert ids.
        std::vector<std::string> vars;
        std::vector<int> cols;
        for (const auto& [var, column] : var_column) {
          int idx = result.schema().Index(column);
          if (idx < 0) continue;
          vars.push_back(var);
          cols.push_back(idx);
        }
        sparql::BindingTable table(vars);
        sparql::IdTable* rows = table.mutable_rows();
        for (const auto& row : result.Collect()) {
          rdf::TermId* cells = rows->AppendRowUninitialized();
          for (size_t i = 0; i < cols.size(); ++i) {
            const sql::Value& v = row[static_cast<size_t>(cols[i])];
            cells[i] = sql::IsNull(v) ? sparql::kUnbound
                                      : static_cast<rdf::TermId>(
                                            std::get<int64_t>(v));
          }
        }
        return plan::PlanPayload(std::move(table));
      });
  project->key_vars = std::move(project_vars);
  return project;
}

}  // namespace rdfspark::systems
