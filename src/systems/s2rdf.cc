#include "systems/s2rdf.h"

#include <algorithm>
#include <unordered_set>

namespace rdfspark::systems {

namespace sql = spark::sql;

S2rdfEngine::S2rdfEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = "S2RDF";
  traits_.citation =
      "[24] Schatzle, Przyjaciel-Zablocki, Skilevic, Lausen — PVLDB 2016";
  traits_.data_model = DataModel::kTriple;
  traits_.abstractions = {SparkAbstraction::kSparkSql};
  traits_.query_processing = "Spark SQL";
  traits_.has_optimization = true;
  traits_.optimization_note =
      "sub-query ordering by bound variables then table size; ExtVP "
      "semi-join reductions shrink join inputs";
  traits_.partitioning = "Extended Vertical";
  traits_.fragment = SparqlFragment::kBgpPlus;
  traits_.contribution =
      "improvements for all query types via ExtVP with bounded storage "
      "overhead (selectivity factor threshold)";
}

namespace {

std::string VpName(rdf::TermId p) { return "vp_p" + std::to_string(p); }

std::string ExtVpName(const char* kind, rdf::TermId p1, rdf::TermId p2) {
  return std::string("extvp_") + kind + "_p" + std::to_string(p1) + "_p" +
         std::to_string(p2);
}

}  // namespace

Result<LoadStats> S2rdfEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  session_ = std::make_unique<sql::SqlSession>(sc_);
  // The session catalog above is rebuilt from scratch, so the row-count
  // shadow map must be too — stale ExtVP entries would otherwise make the
  // planner pick tables the fresh catalog doesn't have.
  table_rows_.clear();
  int n = options_.num_partitions > 0 ? options_.num_partitions
                                      : sc_->config().default_parallelism;

  sql::Schema so_schema{{sql::Field{"s", sql::DataType::kInt64},
                         sql::Field{"o", sql::DataType::kInt64}}};
  sql::Schema spo_schema{{sql::Field{"s", sql::DataType::kInt64},
                          sql::Field{"p", sql::DataType::kInt64},
                          sql::Field{"o", sql::DataType::kInt64}}};

  // VP tables.
  std::unordered_map<rdf::TermId, std::vector<std::pair<int64_t, int64_t>>>
      vp_rows;
  std::vector<sql::Row> all_rows;
  for (const auto& t : store.triples()) {
    vp_rows[t.p].emplace_back(static_cast<int64_t>(t.s),
                              static_cast<int64_t>(t.o));
    all_rows.push_back(sql::Row{static_cast<int64_t>(t.s),
                                static_cast<int64_t>(t.p),
                                static_cast<int64_t>(t.o)});
  }
  session_->RegisterTable(
      "triples", sql::DataFrame::FromRows(sc_, spo_schema, all_rows, n));
  table_rows_["triples"] = all_rows.size();

  uint64_t stored_records = store.triples().size();
  for (const auto& [p, rows] : vp_rows) {
    std::vector<sql::Row> df_rows;
    df_rows.reserve(rows.size());
    for (const auto& [s, o] : rows) df_rows.push_back(sql::Row{s, o});
    int parts = std::max(1, std::min(n, static_cast<int>(rows.size() / 64) +
                                            1));
    session_->RegisterTable(
        VpName(p), sql::DataFrame::FromRows(sc_, so_schema, df_rows, parts));
    table_rows_[VpName(p)] = rows.size();
  }

  // ExtVP: for every predicate pair, semi-join reductions SS / OS / SO.
  // Computed driver-side during preprocessing (the paper does this in a
  // one-off load job), registered as tables when SF <= threshold.
  num_extvp_tables_ = 0;
  extvp_rows_ = 0;
  if (options_.enable_extvp && options_.selectivity_threshold > 0.0) {
    // Per-predicate subject/object value sets.
    std::unordered_map<rdf::TermId, std::unordered_set<rdf::TermId>> subjects;
    std::unordered_map<rdf::TermId, std::unordered_set<rdf::TermId>> objects;
    for (const auto& [p, rows] : vp_rows) {
      auto& subj = subjects[p];
      auto& obj = objects[p];
      for (const auto& [s, o] : rows) {
        subj.insert(static_cast<rdf::TermId>(s));
        obj.insert(static_cast<rdf::TermId>(o));
      }
    }
    auto materialize = [&](const char* kind, rdf::TermId p1, rdf::TermId p2,
                           const std::unordered_set<rdf::TermId>& keep,
                           bool key_on_subject) {
      const auto& rows = vp_rows[p1];
      std::vector<sql::Row> kept;
      for (const auto& [s, o] : rows) {
        rdf::TermId key = key_on_subject ? static_cast<rdf::TermId>(s)
                                         : static_cast<rdf::TermId>(o);
        if (keep.contains(key)) kept.push_back(sql::Row{s, o});
      }
      double sf = rows.empty()
                      ? 0.0
                      : static_cast<double>(kept.size()) /
                            static_cast<double>(rows.size());
      if (sf > options_.selectivity_threshold) return;  // not materialized
      std::string name = ExtVpName(kind, p1, p2);
      int parts =
          std::max(1, std::min(n, static_cast<int>(kept.size() / 64) + 1));
      table_rows_[name] = kept.size();
      extvp_rows_ += kept.size();
      ++num_extvp_tables_;
      session_->RegisterTable(
          name,
          sql::DataFrame::FromRows(sc_, so_schema, std::move(kept), parts));
    };
    for (const auto& [p1, rows1] : vp_rows) {
      for (const auto& [p2, rows2] : vp_rows) {
        if (p1 == p2) continue;
        materialize("ss", p1, p2, subjects[p2], /*key_on_subject=*/true);
        materialize("os", p1, p2, subjects[p2], /*key_on_subject=*/false);
        materialize("so", p1, p2, objects[p2], /*key_on_subject=*/true);
      }
    }
  }

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = stored_records + extvp_rows_;
  for (const auto& [name, df] : session_->catalog()) {
    stats.stored_bytes += df.EstimatedBytes();
  }
  return stats;
}

S2rdfEngine::TableInfo S2rdfEngine::ChooseTable(
    const std::vector<sparql::TriplePattern>& bgp, size_t i) const {
  const auto& tp = bgp[i];
  TableInfo best;
  if (tp.p.is_variable()) {
    best.name = "triples";
    best.rows = table_rows_.at("triples");
    return best;
  }
  auto pid = store_->dictionary().Lookup(tp.p.term());
  if (!pid.ok()) {
    best.name = "";  // impossible pattern
    return best;
  }
  std::string vp = VpName(*pid);
  auto vp_it = table_rows_.find(vp);
  if (vp_it == table_rows_.end()) {
    // The term exists but never as a predicate: matches nothing.
    best.name = "";
    return best;
  }
  best.name = vp;
  best.rows = vp_it->second;

  // Among ExtVP tables applicable to this pattern's correlations, pick the
  // smallest materialized one.
  auto consider = [&](const std::string& name) {
    auto it = table_rows_.find(name);
    if (it != table_rows_.end() && it->second <= best.rows) {
      best.name = name;
      best.rows = it->second;
    }
  };
  for (size_t j = 0; j < bgp.size(); ++j) {
    if (j == i || bgp[j].p.is_variable()) continue;
    auto pj = store_->dictionary().Lookup(bgp[j].p.term());
    if (!pj.ok()) continue;
    // Correlation of pattern i relative to j.
    auto shares = [](const sparql::PatternTerm& a,
                     const sparql::PatternTerm& b) {
      return a.is_variable() && b.is_variable() && a.var() == b.var();
    };
    if (shares(tp.s, bgp[j].s)) consider(ExtVpName("ss", *pid, *pj));
    if (shares(tp.o, bgp[j].s)) consider(ExtVpName("os", *pid, *pj));
    if (shares(tp.s, bgp[j].o)) consider(ExtVpName("so", *pid, *pj));
  }
  return best;
}

Result<S2rdfEngine::SqlParts> S2rdfEngine::BuildSqlParts(
    const std::vector<sparql::TriplePattern>& bgp) const {
  if (bgp.empty()) return Status::InvalidArgument("empty BGP");
  const rdf::Dictionary& dict = store_->dictionary();

  // Order: most bound variables first; ties by smaller table.
  std::vector<size_t> order(bgp.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ba = bgp[a].BoundCount();
    int bb = bgp[b].BoundCount();
    if (ba != bb) return ba > bb;
    return ChooseTable(bgp, a).rows < ChooseTable(bgp, b).rows;
  });

  SqlParts parts;
  for (size_t k = 0; k < order.size(); ++k) {
    size_t i = order[k];
    const auto& tp = bgp[i];
    TableInfo table = ChooseTable(bgp, i);
    if (table.name.empty()) {
      // Unknown constant: an always-false condition keeps the query valid.
      table.name = "triples";
      table.rows = table_rows_.at("triples");
      parts.where.push_back("t" + std::to_string(k) + ".s = -1");
    }
    std::string alias = "t" + std::to_string(k);
    std::vector<std::string> on;
    std::vector<std::string> new_vars;
    std::vector<std::string> on_vars;

    auto handle_slot = [&](const sparql::PatternTerm& slot,
                           const std::string& column) {
      std::string qualified = alias + "." + column;
      if (slot.is_variable()) {
        auto it = parts.var_column.find(slot.var());
        if (it == parts.var_column.end()) {
          parts.var_column.emplace(slot.var(), qualified);
          parts.var_order.push_back(slot.var());
          new_vars.push_back(slot.var());
        } else {
          (k == 0 ? parts.where : on).push_back(qualified + " = " +
                                                it->second);
          if (k > 0) on_vars.push_back(slot.var());
        }
      } else {
        auto id = dict.Lookup(slot.term());
        std::string value = id.ok() ? std::to_string(*id) : "-1";
        (k == 0 ? parts.where : on).push_back(qualified + " = " + value);
      }
    };
    handle_slot(tp.s, "s");
    if (tp.p.is_variable() || table.name == "triples") {
      if (tp.p.is_variable()) {
        handle_slot(tp.p, "p");
      } else {
        auto id = dict.Lookup(tp.p.term());
        std::string value = id.ok() ? std::to_string(*id) : "-1";
        (k == 0 ? parts.where : on).push_back(alias + ".p = " + value);
      }
    }
    handle_slot(tp.o, "o");

    parts.steps.push_back(SqlParts::Step{
        table.name, alias, table.rows, std::move(on), std::move(new_vars),
        std::move(on_vars),
        tp.s.is_variable() ? tp.s.var() : std::string()});
  }
  return parts;
}

Result<std::string> S2rdfEngine::TranslateBgpToSql(
    const std::vector<sparql::TriplePattern>& bgp) const {
  RDFSPARK_ASSIGN_OR_RETURN(SqlParts parts, BuildSqlParts(bgp));

  std::string from_clause;
  for (size_t k = 0; k < parts.steps.size(); ++k) {
    const auto& step = parts.steps[k];
    if (k == 0) {
      from_clause = step.table + " " + step.alias;
    } else {
      std::string cond = step.on.empty() ? "1 = 1" : "";
      for (size_t c = 0; c < step.on.size(); ++c) {
        if (c) cond += " AND ";
        cond += step.on[c];
      }
      from_clause += " JOIN " + step.table + " " + step.alias + " ON " + cond;
    }
  }

  std::string select = "SELECT ";
  for (size_t v = 0; v < parts.var_order.size(); ++v) {
    if (v) select += ", ";
    select += parts.var_column[parts.var_order[v]] + " AS v_" +
              parts.var_order[v];
  }
  if (parts.var_order.empty()) select += "1 AS one";
  std::string sql = select + " FROM " + from_clause;
  if (!parts.where.empty()) {
    sql += " WHERE ";
    for (size_t c = 0; c < parts.where.size(); ++c) {
      if (c) sql += " AND ";
      sql += parts.where[c];
    }
  }
  return sql;
}

Result<plan::PlanPtr> S2rdfEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("S2RDF: Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }

  RDFSPARK_ASSIGN_OR_RETURN(SqlParts parts, BuildSqlParts(bgp));
  RDFSPARK_ASSIGN_OR_RETURN(std::string sql_text, TranslateBgpToSql(bgp));

  // The Spark SQL layer executes the translated query as one unit, so the
  // scan/join nodes below are descriptive (no exec); the root Project runs
  // the captured SQL and converts the v_<var> columns back to bindings.
  auto access = [](const std::string& table) {
    if (table.rfind("extvp_", 0) == 0) return plan::AccessPath::kExtVpTable;
    if (table.rfind("vp_", 0) == 0) return plan::AccessPath::kVpTable;
    return plan::AccessPath::kFullScan;
  };
  auto leaf = [&](const SqlParts::Step& step) {
    auto node =
        plan::MakeScan(plan::NodeKind::kPatternScan, access(step.table),
                       step.table + " " + step.alias, step.rows, nullptr);
    node->out_vars = step.new_vars;
    node->subject_var = step.subject_var;
    // step.rows is the scanned VP/ExtVP table's size — a sound cap for the
    // filtered scan over it.
    node->max_cardinality = step.rows;
    return node;
  };

  plan::PlanPtr root = leaf(parts.steps[0]);
  for (size_t k = 1; k < parts.steps.size(); ++k) {
    const auto& step = parts.steps[k];
    std::string cond;
    for (size_t c = 0; c < step.on.size(); ++c) {
      if (c) cond += " AND ";
      cond += step.on[c];
    }
    root = step.on.empty()
               ? plan::MakeBinary(plan::NodeKind::kCartesianProduct, "1 = 1",
                                  std::move(root), leaf(step), nullptr)
               : plan::MakeBinary(plan::NodeKind::kPartitionedHashJoin,
                                  "on " + cond, std::move(root), leaf(step),
                                  nullptr);
    root->key_vars = step.on_vars;
  }

  std::string project_detail = VarsDetail(parts.var_order);
  if (project_detail.empty()) project_detail = "1 AS one";

  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, project_detail, std::move(root),
      [this, sql_text](std::vector<plan::PlanPayload>)
          -> Result<plan::PlanPayload> {
        RDFSPARK_ASSIGN_OR_RETURN(sql::DataFrame result,
                                  session_->Sql(sql_text));
        return plan::PlanPayload(DataFrameBindings(result));
      });
  project->key_vars = parts.var_order;
  return project;
}

plan::EngineProfile S2rdfEngine::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits_.name;
  profile.vertical_partitioned = true;
  return profile;
}

}  // namespace rdfspark::systems
