#include "systems/hybrid.h"

#include <algorithm>
#include <memory>
#include <variant>

#include "systems/plan/planner_utils.h"

namespace rdfspark::systems {

namespace sql = spark::sql;
using sql::Col;
using sql::DataFrame;
using sql::Expr;
using sql::JoinStrategy;
using sql::JoinType;
using sql::Lit;

const char* HybridModeName(HybridMode mode) {
  switch (mode) {
    case HybridMode::kSparkSqlNaive:
      return "SparkSQL-naive";
    case HybridMode::kRddPartitioned:
      return "RDD-partitioned";
    case HybridMode::kDataFrameAuto:
      return "DataFrame-broadcast";
    case HybridMode::kHybrid:
      return "Hybrid";
  }
  return "unknown";
}

HybridEngine::HybridEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = std::string("SPARQL-GPP (") + HybridModeName(options.mode) +
                 ")";
  traits_.citation = "[21] Naacke, Amann, Cure — GRADES@SIGMOD 2017";
  traits_.data_model = DataModel::kTriple;
  traits_.abstractions = {SparkAbstraction::kRdd,
                          SparkAbstraction::kDataFrames};
  traits_.query_processing = "Hybrid";
  traits_.has_optimization = true;
  traits_.optimization_note =
      "greedy stats-based plan mixing broadcast and partitioned joins";
  traits_.partitioning = "Hash-sbj";
  traits_.fragment = SparqlFragment::kBgp;
  traits_.contribution =
      "study of partitioned vs broadcast joins per Spark abstraction; "
      "hybrid strategy exploiting existing partitioning and DataFrame "
      "compression";
}

Result<LoadStats> HybridEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  stats_ = store.ComputeStatistics();
  num_partitions_ = options_.num_partitions > 0
                        ? options_.num_partitions
                        : sc_->config().default_parallelism;

  std::vector<KeyedTriple> keyed;
  keyed.reserve(store.triples().size());
  std::vector<sql::Row> rows;
  rows.reserve(store.triples().size());
  for (const auto& t : store.triples()) {
    keyed.emplace_back(t.s, t);
    rows.push_back(sql::Row{static_cast<int64_t>(t.s),
                            static_cast<int64_t>(t.p),
                            static_cast<int64_t>(t.o)});
  }
  rdd_by_subject_ = Parallelize(sc_, std::move(keyed), num_partitions_)
                        .PartitionByKey(num_partitions_, "hash-subject");
  rdd_by_subject_.Count();

  sql::Schema spo{{sql::Field{"s", sql::DataType::kInt64},
                   sql::Field{"p", sql::DataType::kInt64},
                   sql::Field{"o", sql::DataType::kInt64}}};
  df_plain_ = DataFrame::FromRows(sc_, spo, rows, num_partitions_);
  df_by_subject_ = df_plain_.PartitionBy({"s"}, num_partitions_);

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = store.triples().size() * 2;  // RDD + DataFrame copy
  stats.stored_bytes =
      rdd_by_subject_.MemoryFootprint() + df_by_subject_.EstimatedBytes();
  return stats;
}

Result<DataFrame> HybridEngine::PatternDf(const sparql::TriplePattern& tp,
                                          bool subject_partitioned) const {
  const rdf::Dictionary& dict = store_->dictionary();
  DataFrame base = subject_partitioned ? df_by_subject_ : df_plain_;

  Expr condition;
  auto add = [&](Expr e) {
    condition = condition.valid() ? (condition && e) : e;
  };
  auto constant = [&](const sparql::PatternTerm& slot, const char* column)
      -> Status {
    if (slot.is_variable()) return Status::OK();
    auto id = dict.Lookup(slot.term());
    // Unknown constants match nothing.
    add(Col(column) ==
        Lit(sql::Value(id.ok() ? static_cast<int64_t>(*id) : int64_t{-1})));
    return Status::OK();
  };
  RDFSPARK_RETURN_NOT_OK(constant(tp.s, "s"));
  RDFSPARK_RETURN_NOT_OK(constant(tp.p, "p"));
  RDFSPARK_RETURN_NOT_OK(constant(tp.o, "o"));
  // Repeated variables inside the pattern.
  if (tp.s.is_variable() && tp.o.is_variable() &&
      tp.s.var() == tp.o.var()) {
    add(Col("s") == Col("o"));
  }
  if (tp.s.is_variable() && tp.p.is_variable() &&
      tp.s.var() == tp.p.var()) {
    add(Col("s") == Col("p"));
  }
  if (tp.p.is_variable() && tp.o.is_variable() &&
      tp.p.var() == tp.o.var()) {
    add(Col("p") == Col("o"));
  }

  DataFrame filtered = condition.valid() ? base.Filter(condition) : base;

  std::vector<std::pair<Expr, std::string>> projections;
  std::vector<std::string> seen;
  auto project = [&](const sparql::PatternTerm& slot, const char* column) {
    if (!slot.is_variable()) return;
    std::string name = "v_" + slot.var();
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) return;
    seen.push_back(name);
    projections.emplace_back(Col(column), name);
  };
  project(tp.s, "s");
  project(tp.p, "p");
  project(tp.o, "o");
  if (projections.empty()) {
    // Fully bound pattern: keep a marker column so the row count survives.
    projections.emplace_back(Lit(sql::Value(int64_t{1})), "__match");
  }
  DataFrame out = filtered.SelectExprs(projections);
  if (subject_partitioned && tp.s.is_variable()) {
    // Filter+project preserve row placement; rows are still hashed by the
    // (renamed) subject column.
    out = out.AssumePartitionedBy({"v_" + tp.s.var()});
  }
  return out;
}

namespace {

/// Natural join on shared v_ columns with an explicit strategy; right-side
/// duplicates are dropped. No shared columns -> cross join.
DataFrame JoinOnSharedVars(const DataFrame& left, const DataFrame& right,
                           JoinStrategy strategy) {
  std::vector<std::string> shared;
  for (const auto& f : right.schema().fields()) {
    if (left.schema().Index(f.name) >= 0) shared.push_back(f.name);
  }
  if (shared.empty()) return left.CrossJoin(right);
  std::vector<std::string> rnames;
  for (const auto& f : right.schema().fields()) {
    bool is_shared =
        std::find(shared.begin(), shared.end(), f.name) != shared.end();
    rnames.push_back(is_shared ? "__r_" + f.name : f.name);
  }
  DataFrame renamed = right.Rename(rnames);
  if (right.partitioner().has_value() && shared.size() == 1) {
    // Renaming the partition column keeps placement valid under the new
    // name.
    renamed = renamed.AssumePartitionedBy({"__r_" + shared[0]});
  }
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& c : shared) keys.emplace_back(c, "__r_" + c);
  DataFrame joined = left.Join(renamed, keys, JoinType::kInner, strategy);
  std::vector<std::string> keep;
  for (const auto& f : joined.schema().fields()) {
    if (f.name.rfind("__r_", 0) != 0) keep.push_back(f.name);
  }
  return joined.Select(keep);
}

/// "on ?a ?b" over the shared variables ("" for a cross join).
std::string JoinDetail(const std::vector<std::string>& shared) {
  return shared.empty() ? "" : "on " + VarsDetail(shared);
}

/// Column::MemoryBytes charges 9 bytes per int64 cell (value + null mask);
/// the planner mirrors that to predict DataFrame sizes from row estimates.
uint64_t EstimatedDfBytes(uint64_t rows, const sparql::TriplePattern& tp) {
  return rows * std::max<uint64_t>(1, tp.Variables().size()) * 9;
}

/// The Project of a DataFrame plan: the result variables in DataFrame
/// column order (first appearance across patterns, s/p/o within a
/// pattern), rows read from the v_<var> columns.
plan::PlanPtr ProjectDf(plan::PlanPtr root,
                        const std::vector<sparql::TriplePattern>& patterns) {
  std::vector<std::string> vars = BgpSchema(patterns).vars();
  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, VarsDetail(vars), std::move(root),
      [](std::vector<plan::PlanPayload> in) -> Result<plan::PlanPayload> {
        return plan::PlanPayload(
            DataFrameBindings(std::get<DataFrame>(std::move(in[0]))));
      });
  project->key_vars = std::move(vars);
  return project;
}

}  // namespace

plan::PlanPtr HybridEngine::DfScan(const sparql::TriplePattern& tp,
                                   bool subject_partitioned) const {
  const rdf::Dictionary& dict = store_->dictionary();
  auto node = plan::MakeScan(
      plan::NodeKind::kPatternScan, plan::AccessPath::kFullScan,
      tp.ToString(), DistinctCountEstimate(dict, stats_, tp),
      [this, tp, subject_partitioned](std::vector<plan::PlanPayload>)
          -> Result<plan::PlanPayload> {
        RDFSPARK_ASSIGN_OR_RETURN(DataFrame step,
                                  PatternDf(tp, subject_partitioned));
        return plan::PlanPayload(std::move(step));
      });
  AnnotateScan(tp, PatternScanBound(dict, stats_, tp), node.get());
  return node;
}

Result<plan::PlanPtr> HybridEngine::PlanSqlNaive(
    const std::vector<sparql::TriplePattern>& bgp) {
  // Catalyst translation pitfall: joins between patterns carry no usable
  // equi-keys, so every step is a Cartesian product filtered afterwards.
  plan::PlanPtr root = DfScan(bgp[0], /*subject_partitioned=*/false);
  for (size_t i = 1; i < bgp.size(); ++i) {
    root = plan::MakeBinary(
        plan::NodeKind::kCartesianProduct, "cross-join + filter",
        std::move(root), DfScan(bgp[i], /*subject_partitioned=*/false),
        [](std::vector<plan::PlanPayload> in) -> Result<plan::PlanPayload> {
          auto result = std::get<DataFrame>(std::move(in[0]));
          auto step = std::get<DataFrame>(std::move(in[1]));
          // Rename shared columns, cross join, filter equalities, drop.
          std::vector<std::string> shared;
          for (const auto& f : step.schema().fields()) {
            if (result.schema().Index(f.name) >= 0) shared.push_back(f.name);
          }
          std::vector<std::string> names;
          for (const auto& f : step.schema().fields()) {
            bool is_shared =
                std::find(shared.begin(), shared.end(), f.name) != shared.end();
            names.push_back(is_shared ? "__d_" + f.name : f.name);
          }
          DataFrame crossed = result.CrossJoin(step.Rename(names));
          Expr condition;
          for (const auto& c : shared) {
            Expr eq = Col(c) == Col("__d_" + c);
            condition = condition.valid() ? (condition && eq) : eq;
          }
          if (condition.valid()) crossed = crossed.Filter(condition);
          std::vector<std::string> keep;
          for (const auto& f : crossed.schema().fields()) {
            if (f.name.rfind("__d_", 0) != 0) keep.push_back(f.name);
          }
          return plan::PlanPayload(crossed.Select(keep));
        });
  }
  return ProjectDf(std::move(root), bgp);
}

Result<plan::PlanPtr> HybridEngine::PlanRdd(
    const std::vector<sparql::TriplePattern>& bgp) {
  // Input order, partitioned joins only, full scan per pattern.
  const rdf::Dictionary& dict = store_->dictionary();
  auto schema = std::make_shared<const VarSchema>(BgpSchema(bgp));
  size_t width = schema->vars().size();
  return plan::BatchJoinChain(sc_, schema, bgp, [&](size_t i) {
    const sparql::TriplePattern& tp = bgp[i];
    auto node = plan::MakeScan(
        plan::NodeKind::kPatternScan, plan::AccessPath::kFullScan,
        tp.ToString(), DistinctCountEstimate(dict, stats_, tp),
        [this, schema, width, tp](std::vector<plan::PlanPayload>)
            -> Result<plan::PlanPayload> {
          auto ep = std::make_shared<const EncodedPattern>(
              EncodePattern(store_->dictionary(), tp, *schema));
          return plan::PlanPayload(rdd_by_subject_.MapPartitionsWithIndex(
              [ep, width](int, const std::vector<KeyedTriple>& in) {
                sparql::IdTable out(width);
                for (const KeyedTriple& kv : in) {
                  AppendMatch(*ep, kv.second, {}, &out);
                }
                return std::vector<sparql::IdTable>{std::move(out)};
              }));
        });
    AnnotateScan(tp, PatternScanBound(dict, stats_, tp), node.get());
    return node;
  });
}

Result<plan::PlanPtr> HybridEngine::PlanDataFrame(
    const std::vector<sparql::TriplePattern>& bgp) {
  // Input order, auto (size-threshold broadcast) joins, no partitioning
  // awareness. The node kind is the planner's stats-based prediction of
  // what the auto strategy will pick; the executor defers to the runtime
  // size check, exactly as before.
  const rdf::Dictionary& dict = store_->dictionary();
  plan::PlanPtr root = DfScan(bgp[0], /*subject_partitioned=*/false);
  VarSchema bound;
  for (const auto& v : bgp[0].Variables()) bound.Add(v);
  for (size_t i = 1; i < bgp.size(); ++i) {
    const auto& tp = bgp[i];
    auto shared = SharedVars(tp, bound);
    uint64_t step_bytes =
        EstimatedDfBytes(DistinctCountEstimate(dict, stats_, tp), tp);
    plan::NodeKind kind =
        shared.empty() ? plan::NodeKind::kCartesianProduct
        : step_bytes <= sc_->config().broadcast_threshold_bytes
            ? plan::NodeKind::kBroadcastJoin
            : plan::NodeKind::kPartitionedHashJoin;
    root = plan::MakeBinary(
        kind, JoinDetail(shared), std::move(root),
        DfScan(tp, /*subject_partitioned=*/false),
        [](std::vector<plan::PlanPayload> in) -> Result<plan::PlanPayload> {
          auto result = std::get<DataFrame>(std::move(in[0]));
          auto step = std::get<DataFrame>(std::move(in[1]));
          return plan::PlanPayload(
              JoinOnSharedVars(result, step, JoinStrategy::kAuto));
        });
    root->key_vars = shared;
    for (const auto& v : tp.Variables()) bound.Add(v);
  }
  return ProjectDf(std::move(root), bgp);
}

Result<plan::PlanPtr> HybridEngine::PlanHybrid(
    const std::vector<sparql::TriplePattern>& bgp) {
  // Greedy stats-based order; subject-partitioned pattern tables so
  // subject-subject joins run co-partitioned; broadcast when a side is
  // small enough. The planner predicts the broadcast-vs-partitioned choice
  // from cardinality statistics; the executor keeps the runtime
  // EstimatedBytes decision so behaviour is bit-identical.
  const rdf::Dictionary& dict = store_->dictionary();
  auto cardinality = [this, &dict](const sparql::TriplePattern& tp) {
    return DistinctCountEstimate(dict, stats_, tp);
  };
  std::vector<sparql::TriplePattern> ordered;
  for (size_t i : plan::SortedConnectedOrder(bgp, cardinality)) {
    ordered.push_back(bgp[i]);
  }

  plan::PlanPtr root = DfScan(ordered[0], /*subject_partitioned=*/true);
  VarSchema bound;
  for (const auto& v : ordered[0].Variables()) bound.Add(v);
  uint64_t result_est = cardinality(ordered[0]);
  uint64_t result_cols =
      std::max<uint64_t>(1, ordered[0].Variables().size());
  for (size_t i = 1; i < ordered.size(); ++i) {
    const auto& tp = ordered[i];
    auto shared = SharedVars(tp, bound);
    uint64_t step_est = cardinality(tp);
    uint64_t threshold = sc_->config().broadcast_threshold_bytes;
    bool small_side =
        EstimatedDfBytes(step_est, tp) <= threshold ||
        result_est * result_cols * 9 <= threshold;
    plan::NodeKind kind = shared.empty()
                              ? plan::NodeKind::kCartesianProduct
                          : small_side ? plan::NodeKind::kBroadcastJoin
                                       : plan::NodeKind::kPartitionedHashJoin;
    plan::PlanPtr node = plan::MakeBinary(
        kind, JoinDetail(shared), std::move(root),
        DfScan(tp, /*subject_partitioned=*/true),
        [this](std::vector<plan::PlanPayload> in) -> Result<plan::PlanPayload> {
          auto result = std::get<DataFrame>(std::move(in[0]));
          auto step = std::get<DataFrame>(std::move(in[1]));
          JoinStrategy strategy =
              step.EstimatedBytes() <=
                          sc_->config().broadcast_threshold_bytes ||
                      result.EstimatedBytes() <=
                          sc_->config().broadcast_threshold_bytes
                  ? JoinStrategy::kAuto  // auto picks the broadcast side
                  : JoinStrategy::kShuffleHash;
          return plan::PlanPayload(JoinOnSharedVars(result, step, strategy));
        });
    node->key_vars = shared;
    // A single-key join on the step's subject runs over the subject-hash
    // placement both pattern tables were loaded with.
    node->partition_local = kind == plan::NodeKind::kPartitionedHashJoin &&
                            shared.size() == 1 && tp.s.is_variable() &&
                            tp.s.var() == shared[0];
    // Running estimate: an equi-join keeps at most the smaller side's
    // rows; a cross product multiplies.
    result_est = shared.empty() ? result_est * step_est
                                : std::min(result_est, step_est);
    for (const auto& v : tp.Variables()) bound.Add(v);
    result_cols = std::max<uint64_t>(1, bound.vars().size());
    node->est_cardinality = result_est;
    root = std::move(node);
  }
  return ProjectDf(std::move(root), ordered);
}

plan::EngineProfile HybridEngine::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits_.name;
  switch (options_.mode) {
    case HybridMode::kSparkSqlNaive:
      break;  // plain DataFrames, no broadcast, no placement claims
    case HybridMode::kRddPartitioned:
      profile.subject_partitioned = true;
      break;
    case HybridMode::kDataFrameAuto:
      profile.broadcast_threshold_bytes =
          sc_->config().broadcast_threshold_bytes;
      break;
    case HybridMode::kHybrid:
      profile.subject_partitioned = true;
      profile.broadcast_threshold_bytes =
          sc_->config().broadcast_threshold_bytes;
      break;
  }
  return profile;
}

Result<plan::PlanPtr> HybridEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }
  switch (options_.mode) {
    case HybridMode::kSparkSqlNaive:
      return PlanSqlNaive(bgp);
    case HybridMode::kRddPartitioned:
      return PlanRdd(bgp);
    case HybridMode::kDataFrameAuto:
      return PlanDataFrame(bgp);
    case HybridMode::kHybrid:
      return PlanHybrid(bgp);
  }
  return Status::Internal("unknown mode");
}

}  // namespace rdfspark::systems
