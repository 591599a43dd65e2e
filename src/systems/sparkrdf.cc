#include "systems/sparkrdf.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <variant>

#include "systems/batch.h"

namespace rdfspark::systems {

using spark::Rdd;

SparkRdfEngine::SparkRdfEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(options) {
  traits_.name = "SparkRDF";
  traits_.citation = "[5] Chen, Chen, Zhang, Zhang — WI-IAT 2015";
  traits_.data_model = DataModel::kGraph;
  traits_.abstractions = {SparkAbstraction::kRdd};
  traits_.query_processing = "Custom";
  traits_.has_optimization = true;
  traits_.optimization_note =
      "rdf:type elimination via class messages; variable-order query plan; "
      "on-demand dynamic pre-partitioning";
  traits_.partitioning = "Hash-sbj";
  traits_.fragment = SparqlFragment::kBgp;
  traits_.contribution =
      "multi-layer elastic sub-graph indexes reduce I/O and intermediate "
      "communication";
}

plan::EngineProfile SparkRdfEngine::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits_.name;
  // RDSGs are dynamically pre-partitioned on the current join variable
  // (subject hash at load); co-partitioned joins mark partition_local.
  profile.subject_partitioned = true;
  return profile;
}

Result<LoadStats> SparkRdfEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  num_partitions_ = options_.num_partitions > 0
                        ? options_.num_partitions
                        : sc_->config().default_parallelism;
  auto type_id = store.TypePredicate();
  has_type_predicate_ = type_id.has_value();
  if (has_type_predicate_) type_predicate_ = *type_id;

  all_triples_.assign(store.triples().begin(), store.triples().end());
  class_index_.clear();
  relation_index_.clear();
  cr_index_.clear();
  rc_index_.clear();
  crc_index_.clear();
  index_records_ = 0;

  // Level 1: class files (rdf:type triples by object class) and relation
  // files (other triples by predicate name). rdf:type triples also stay
  // addressable as a relation for class-variable patterns.
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> classes_of;
  for (const auto& t : all_triples_) {
    if (has_type_predicate_ && t.p == type_predicate_) {
      class_index_[t.o].insert(t.s);
      classes_of[t.s].push_back(t.o);
    }
    relation_index_[t.p].push_back(t);
    ++index_records_;
  }

  // Levels 2 and 3: divide each predicate file by the classes of subjects
  // and objects.
  if (options_.enable_class_indexes) {
    for (const auto& [p, triples] : relation_index_) {
      if (has_type_predicate_ && p == type_predicate_) continue;
      for (const auto& t : triples) {
        auto s_it = classes_of.find(t.s);
        auto o_it = classes_of.find(t.o);
        if (s_it != classes_of.end()) {
          for (rdf::TermId sc : s_it->second) {
            cr_index_[{sc, p}].push_back(t);
            ++index_records_;
            if (o_it != classes_of.end()) {
              for (rdf::TermId oc : o_it->second) {
                crc_index_[{sc, p, oc}].push_back(t);
                ++index_records_;
              }
            }
          }
        }
        if (o_it != classes_of.end()) {
          for (rdf::TermId oc : o_it->second) {
            rc_index_[{p, oc}].push_back(t);
            ++index_records_;
          }
        }
      }
    }
  }

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = index_records_;
  stats.stored_bytes = index_records_ * 24;
  return stats;
}

const SparkRdfEngine::TripleList* SparkRdfEngine::SelectFile(
    const sparql::TriplePattern& tp,
    const std::unordered_map<std::string, rdf::TermId>& var_class) const {
  static const TripleList kEmpty;
  if (tp.p.is_variable()) return &all_triples_;
  auto pid = store_->dictionary().Lookup(tp.p.term());
  if (!pid.ok()) return &kEmpty;

  std::optional<rdf::TermId> s_class, o_class;
  // rdf:type itself is only filed in the relation index (levels 2/3 divide
  // non-type predicates).
  bool is_type = has_type_predicate_ && *pid == type_predicate_;
  if (options_.enable_class_indexes && !is_type) {
    if (tp.s.is_variable()) {
      auto it = var_class.find(tp.s.var());
      if (it != var_class.end()) s_class = it->second;
    }
    if (tp.o.is_variable()) {
      auto it = var_class.find(tp.o.var());
      if (it != var_class.end()) o_class = it->second;
    }
  }
  const TripleList* best = nullptr;
  if (s_class && o_class) {
    auto it = crc_index_.find({*s_class, *pid, *o_class});
    best = it == crc_index_.end() ? &kEmpty : &it->second;
    return best;
  }
  if (s_class) {
    auto it = cr_index_.find({*s_class, *pid});
    return it == cr_index_.end() ? &kEmpty : &it->second;
  }
  if (o_class) {
    auto it = rc_index_.find({*pid, *o_class});
    return it == rc_index_.end() ? &kEmpty : &it->second;
  }
  auto it = relation_index_.find(*pid);
  return it == relation_index_.end() ? &kEmpty : &it->second;
}

Result<plan::PlanPtr> SparkRdfEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }
  const rdf::Dictionary& dict = store_->dictionary();

  VarSchema schema = BgpSchema(bgp);
  size_t width = schema.vars().size();
  auto schema_copy = std::make_shared<const VarSchema>(schema);

  // rdf:type elimination: (?x rdf:type Class) patterns become class
  // constraints passed to the variable's other patterns.
  std::unordered_map<std::string, rdf::TermId> var_class;
  std::vector<sparql::TriplePattern> work;
  std::vector<std::string> class_only_vars;
  if (options_.enable_class_indexes && has_type_predicate_) {
    for (const auto& tp : bgp) {
      bool is_type_const = !tp.p.is_variable() && tp.s.is_variable() &&
                           !tp.o.is_variable() &&
                           tp.p.term().lexical() == rdf::kRdfType;
      if (is_type_const) {
        auto cid = dict.Lookup(tp.o.term());
        if (!cid.ok()) {
          return plan::ConstantResultPlan(sparql::BindingTable(schema.vars()),
                                          "unknown class");
        }
        // Keep only the first class constraint per variable; further type
        // patterns stay as normal patterns.
        if (!var_class.contains(tp.s.var())) {
          var_class[tp.s.var()] = *cid;
          continue;
        }
      }
      work.push_back(tp);
    }
    // Variables constrained by class only: bind from the class index.
    for (const auto& [var, cls] : var_class) {
      bool appears = false;
      for (const auto& tp : work) {
        for (const auto& v : tp.Variables()) appears |= v == var;
      }
      if (!appears) class_only_vars.push_back(var);
    }
  } else {
    work = bgp;
  }

  // Query plan: order join variables by the total size of the files their
  // patterns read; per variable, its patterns ordered by file size.
  std::vector<std::string> var_order;
  {
    std::unordered_map<std::string, uint64_t> var_cost;
    for (const auto& tp : work) {
      const TripleList* file = SelectFile(tp, var_class);
      for (const auto& v : tp.Variables()) var_cost[v] += file->size();
    }
    for (const auto& [v, cost] : var_cost) var_order.push_back(v);
    std::sort(var_order.begin(), var_order.end(),
              [&](const std::string& a, const std::string& b) {
                return var_cost[a] < var_cost[b];
              });
  }

  spark::PartitionerInfo part_info{"hash-sbj", num_partitions_, 0};

  // Names the MESG file SelectFile picks for a pattern, for EXPLAIN.
  auto file_access = [&](const sparql::TriplePattern& tp)
      -> std::pair<plan::AccessPath, std::string> {
    if (tp.p.is_variable()) {
      return {plan::AccessPath::kFullScan, "all triples"};
    }
    auto pid = dict.Lookup(tp.p.term());
    if (!pid.ok()) return {plan::AccessPath::kFullScan, "missing predicate"};
    bool is_type = has_type_predicate_ && *pid == type_predicate_;
    bool s_cls = false;
    bool o_cls = false;
    if (options_.enable_class_indexes && !is_type) {
      s_cls = tp.s.is_variable() && var_class.contains(tp.s.var());
      o_cls = tp.o.is_variable() && var_class.contains(tp.o.var());
    }
    if (s_cls && o_cls) return {plan::AccessPath::kClassIndex, "crc file"};
    if (s_cls) return {plan::AccessPath::kClassIndex, "cr file"};
    if (o_cls) return {plan::AccessPath::kClassIndex, "rc file"};
    return {plan::AccessPath::kVpTable, "relation file"};
  };

  // RDSG generation: a scan leaf loads its file on demand in the exec,
  // pre-partitioned on the join variable's value.
  auto scan_pattern = [&](const sparql::TriplePattern& tp,
                          const std::string& key_var) -> plan::PlanPtr {
    const TripleList* file = SelectFile(tp, var_class);
    auto [access, file_kind] = file_access(tp);
    auto ep = std::make_shared<const EncodedPattern>(
        EncodePattern(dict, tp, schema));
    size_t key_idx = static_cast<size_t>(schema.IndexOf(key_var));
    auto node = plan::MakeScan(
        plan::NodeKind::kPatternScan, access,
        tp.ToString() + " (" + file_kind + ", partition on ?" + key_var + ")",
        file->size(),
        [this, file, ep, width, key_idx, part_info](
            std::vector<plan::PlanPayload>) -> Result<plan::PlanPayload> {
          auto rows =
              Parallelize(sc_, *file, num_partitions_)
                  .MapPartitionsWithIndex(
                      [ep, width, key_idx](
                          int, const std::vector<rdf::EncodedTriple>& in) {
                        KeyedBatch out{{}, sparql::IdTable(width)};
                        for (const rdf::EncodedTriple& t : in) {
                          if (AppendMatch(*ep, t, {}, &out.rows)) {
                            out.keys.push_back(out.rows.cell(
                                out.rows.size() - 1, key_idx));
                          }
                        }
                        return std::vector<KeyedBatch>{std::move(out)};
                      });
          return plan::PlanPayload(RepartitionKeyed(
              rows, num_partitions_, width, "PartitionByKey", part_info));
        });
    // The scan filters its class-eliminated file, so the file size is a
    // sound cap (tighter than the whole-store pattern bound).
    AnnotateScan(tp, file->size(), node.get());
    return node;
  };

  plan::PlanPtr current;
  std::string current_key;
  std::vector<bool> done(work.size(), false);
  VarSchema bound;

  for (const auto& x : var_order) {
    // Patterns of this variable, smallest file first.
    std::vector<size_t> mine;
    for (size_t i = 0; i < work.size(); ++i) {
      if (done[i]) continue;
      for (const auto& v : work[i].Variables()) {
        if (v == x) {
          mine.push_back(i);
          break;
        }
      }
    }
    if (mine.empty()) continue;
    std::sort(mine.begin(), mine.end(), [&](size_t a, size_t b) {
      return SelectFile(work[a], var_class)->size() <
             SelectFile(work[b], var_class)->size();
    });

    for (size_t i : mine) {
      done[i] = true;
      auto leaf = scan_pattern(work[i], x);
      if (current == nullptr) {
        current = std::move(leaf);
        current_key = x;
      } else {
        if (current_key != x && bound.IndexOf(x) < 0) {
          // Rows missing x (disconnected component boundary) go through a
          // cartesian merge instead.
          current = plan::MakeBinary(
              plan::NodeKind::kCartesianProduct,
              "merge-rows (re-partition on ?" + x + ")", std::move(current),
              std::move(leaf),
              [this, width, part_info](std::vector<plan::PlanPayload> in)
                  -> Result<plan::PlanPayload> {
                auto cur = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
                auto rows = std::get<Rdd<KeyedBatch>>(std::move(in[1]));
                // The merged row adopts the fresh leaf's key (the new join
                // variable), like the per-element path did.
                auto crossed = CartesianMergeKeyed(
                    sc_, cur, rows, /*keep_left_key=*/false, width);
                return plan::PlanPayload(RepartitionKeyed(
                    crossed, num_partitions_, width, "PartitionByKey",
                    part_info));
              });
          current_key = x;
          for (const auto& v : work[i].Variables()) bound.Add(v);
          continue;
        }
        bool need_rekey = current_key != x;
        int idx = schema.IndexOf(x);
        current = plan::MakeBinary(
            plan::NodeKind::kPartitionedHashJoin,
            "on ?" + x +
                (need_rekey ? " (re-partition)" : " (co-partitioned)"),
            std::move(current), std::move(leaf),
            [this, need_rekey, idx, width, part_info](
                std::vector<plan::PlanPayload> in)
                -> Result<plan::PlanPayload> {
              auto cur = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
              auto rows = std::get<Rdd<KeyedBatch>>(std::move(in[1]));
              if (need_rekey) {
                cur = RepartitionKeyed(RekeyBatches(cur, idx, width),
                                       num_partitions_, width,
                                       "PartitionByKey", part_info);
              }
              // Co-partitioned join on x (no shuffle after the
              // pre-partition).
              auto joined = JoinKeyedBatches(sc_, cur, rows, width);
              return plan::PlanPayload(joined.AssumePartitioner(part_info));
            });
        current->key_vars = {x};
        // The fresh leaf is pre-partitioned on x; without a re-key the
        // accumulated side already is too, so the join never shuffles.
        current->partition_local = !need_rekey;
        current_key = x;
      }
      for (const auto& v : work[i].Variables()) bound.Add(v);
    }
  }

  // Bridge from the distributed join phase to the driver-side class
  // constraint phase.
  plan::PlanPtr rows_plan;
  if (current != nullptr) {
    rows_plan = plan::MakeUnary(
        plan::NodeKind::kProject, "collect matched rows", std::move(current),
        [width](std::vector<plan::PlanPayload> in)
            -> Result<plan::PlanPayload> {
          auto cur = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
          return plan::PlanPayload(CollectKeyedRows(cur, width));
        });
  } else {
    rows_plan = plan::MakeScan(
        plan::NodeKind::kPatternScan, plan::AccessPath::kNone,
        "unit row (all patterns class-eliminated)", 1,
        [width](std::vector<plan::PlanPayload>) -> Result<plan::PlanPayload> {
          sparql::IdTable unit(width);
          unit.AppendRowFilled(sparql::kUnbound);
          return plan::PlanPayload(std::move(unit));
        });
    rows_plan->max_cardinality = 1;
  }

  // Class constraints for variables bound by other patterns.
  for (const auto& [var, cls] : var_class) {
    auto it = class_index_.find(cls);
    int idx = schema.IndexOf(var);
    if (idx < 0) continue;
    const std::unordered_set<rdf::TermId>* instances =
        it == class_index_.end() ? nullptr : &it->second;
    auto cname = dict.DecodeString(cls);
    std::string cls_name = cname.ok() ? *cname : "#" + std::to_string(cls);
    bool class_only =
        std::find(class_only_vars.begin(), class_only_vars.end(), var) !=
        class_only_vars.end();
    if (class_only) {
      // Bind from the class index (cartesian with current rows).
      auto index_leaf = plan::MakeScan(
          plan::NodeKind::kPatternScan, plan::AccessPath::kClassIndex,
          "instances of " + cls_name,
          instances == nullptr ? 0 : instances->size(), nullptr);
      index_leaf->out_vars = {var};
      index_leaf->subject_var = var;
      index_leaf->max_cardinality =
          instances == nullptr ? 0 : instances->size();
      rows_plan = plan::MakeBinary(
          plan::NodeKind::kCartesianProduct, "bind ?" + var,
          std::move(rows_plan), std::move(index_leaf),
          [instances, idx](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto rows = std::get<sparql::IdTable>(std::move(in[0]));
            sparql::IdTable expanded(rows.width());
            if (instances != nullptr) {
              for (size_t r = 0; r < rows.size(); ++r) {
                for (rdf::TermId instance : *instances) {
                  rdf::TermId* cells = expanded.AppendRowUninitialized();
                  sparql::IdSpan base = rows.row(r);
                  std::copy(base.begin(), base.end(), cells);
                  cells[static_cast<size_t>(idx)] = instance;
                }
              }
            }
            return plan::PlanPayload(std::move(expanded));
          });
    } else {
      rows_plan = plan::MakeUnary(
          plan::NodeKind::kFilter,
          "?" + var + " is-a " + cls_name + " (class index)",
          std::move(rows_plan),
          [instances, idx](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto rows = std::get<sparql::IdTable>(std::move(in[0]));
            sparql::IdTable kept(rows.width());
            for (size_t r = 0; r < rows.size(); ++r) {
              rdf::TermId value = rows.cell(r, static_cast<size_t>(idx));
              if (instances != nullptr && instances->count(value)) {
                kept.AppendRowFrom(rows, r);
              }
            }
            return plan::PlanPayload(std::move(kept));
          });
      rows_plan->key_vars = {var};
    }
  }

  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, VarsDetail(schema.vars()), std::move(rows_plan),
      [schema_copy](std::vector<plan::PlanPayload> in)
          -> Result<plan::PlanPayload> {
        auto rows = std::get<sparql::IdTable>(std::move(in[0]));
        return plan::PlanPayload(
            ToBindingTable(*schema_copy, std::move(rows)));
      });
  project->key_vars = schema.vars();
  return project;
}

}  // namespace rdfspark::systems
