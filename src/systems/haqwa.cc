#include "systems/haqwa.h"

#include <algorithm>
#include <memory>
#include <variant>

#include "sparql/parser.h"

namespace rdfspark::systems {

using spark::Rdd;

HaqwaEngine::HaqwaEngine(spark::SparkContext* sc, Options options)
    : BgpEngineBase(sc), options_(std::move(options)) {
  traits_.name = "HAQWA";
  traits_.citation = "[7] Cure, Naacke, Baazizi, Amann — ISWC P&D 2015";
  traits_.data_model = DataModel::kTriple;
  traits_.abstractions = {SparkAbstraction::kRdd};
  traits_.query_processing = "RDD API";
  traits_.has_optimization = false;
  traits_.optimization_note =
      "no join reordering; relies on fragmentation + replication";
  traits_.partitioning = "Hash / Query Aware";
  traits_.fragment = SparqlFragment::kBgpPlus;
  traits_.contribution =
      "trade-off between data distribution complexity and query answering "
      "efficiency; star queries local by construction";
}

Result<LoadStats> HaqwaEngine::Load(const rdf::TripleStore& store) {
  store_ = &store;
  stats_ = store.ComputeStatistics();
  int n = options_.num_partitions > 0 ? options_.num_partitions
                                      : sc_->config().default_parallelism;

  // Step 1: fragmentation on subjects (dictionary-encoded triples) — hash
  // by default, by subject class under the semantic option.
  std::vector<KeyedTriple> keyed;
  keyed.reserve(store.triples().size());
  for (const auto& t : store.triples()) keyed.emplace_back(t.s, t);
  auto base = Parallelize(sc_, std::move(keyed), n);
  if (options_.semantic_partitioning) {
    semantic_ = std::make_shared<const SemanticPartitioner>(store, n);
    subject_partitioner_ = spark::PartitionerInfo{"semantic-class", n, 0};
    auto partitioner = semantic_;
    by_subject_ = base.ShuffleBy(
        [partitioner](const KeyedTriple& kv) {
          // The partition index is already < n, so the modulo in ShuffleBy
          // leaves it unchanged.
          return static_cast<uint64_t>(
              partitioner->PartitionOfSubject(kv.first));
        },
        n, "SemanticPartition", subject_partitioner_);
  } else {
    semantic_.reset();
    subject_partitioner_ = spark::PartitionerInfo{"hash-subject", n, 0};
    by_subject_ = base.PartitionByKey(n, "hash-subject");
  }
  by_subject_.Count();  // materialize the fragmentation

  // Step 2: workload-aware allocation. For every subject-object link
  // (?x pA ?y)(?y pB ?z) in a frequent query, replicate the pB triples to
  // the partition of the pA subject that reaches them.
  replicated_triples_ = 0;
  // Replicas are guarded by contains() below, so a reload must clear them
  // or the second Load keeps replicas built from the previous store.
  replicas_.clear();
  object_replicas_.clear();
  std::vector<std::pair<rdf::TermId, rdf::TermId>> links;
  for (const auto& text : options_.frequent_queries) {
    auto query = sparql::ParseQuery(text);
    if (!query.ok()) continue;
    const auto& bgp = query->where.bgp;
    for (const auto& a : bgp) {
      if (!a.o.is_variable() || a.p.is_variable()) continue;
      for (const auto& b : bgp) {
        if (&a == &b || b.p.is_variable()) continue;
        if (b.s.is_variable() && b.s.var() == a.o.var()) {
          auto pa = store.dictionary().Lookup(a.p.term());
          auto pb = store.dictionary().Lookup(b.p.term());
          if (pa.ok() && pb.ok()) links.emplace_back(*pa, *pb);
        }
      }
    }
  }
  for (const auto& [pa, pb] : links) {
    if (replicas_.contains({pa, pb})) continue;
    rdf::TermId pa_id = pa;
    rdf::TermId pb_id = pb;
    // A-triples keyed by object; B-triples keyed by subject.
    auto a_by_object =
        by_subject_
            .Filter([pa_id](const KeyedTriple& kv) {
              return kv.second.p == pa_id;
            })
            .Map([](const KeyedTriple& kv) {
              return std::pair<rdf::TermId, rdf::TermId>(kv.second.o,
                                                         kv.second.s);
            });
    auto b_by_subject = by_subject_.Filter(
        [pb_id](const KeyedTriple& kv) { return kv.second.p == pb_id; });
    // (object==subject) join, then re-key by the reaching A-subject and
    // co-partition with the base fragmentation.
    auto replica =
        a_by_object.Join(b_by_subject)
            .Map([](const std::pair<rdf::TermId,
                                    std::pair<rdf::TermId,
                                              rdf::EncodedTriple>>& kv) {
              return KeyedTriple(kv.second.first, kv.second.second);
            })
            .PartitionByKey(subject_partitioner_.num_partitions,
                            "hash-subject");
    replicated_triples_ += replica.Count();
    replicas_.emplace(std::make_pair(pa, pb), replica);

    // Object-keyed replica of the link source, for seeds at the target end.
    if (!object_replicas_.contains(pa)) {
      auto by_object =
          by_subject_
              .Filter([pa_id](const KeyedTriple& kv) {
                return kv.second.p == pa_id;
              })
              .Map([](const KeyedTriple& kv) {
                return KeyedTriple(kv.second.o, kv.second);
              })
              .PartitionByKey(subject_partitioner_.num_partitions,
                              "hash-subject");
      replicated_triples_ += by_object.Count();
      object_replicas_.emplace(pa, by_object);
    }
  }

  LoadStats stats;
  stats.input_triples = store.triples().size();
  stats.stored_records = stats.input_triples + replicated_triples_;
  stats.stored_bytes = by_subject_.MemoryFootprint();
  for (auto& [key, replica] : replicas_) {
    stats.stored_bytes += replica.MemoryFootprint();
  }
  for (auto& [key, replica] : object_replicas_) {
    stats.stored_bytes += replica.MemoryFootprint();
  }
  return stats;
}

spark::Rdd<KeyedBatch> HaqwaEngine::EvaluateStarLocal(
    const SubjectGroup& group, const VarSchema& schema) const {
  // Encode the group's patterns once, outside the closure.
  auto encoded = std::make_shared<std::vector<EncodedPattern>>();
  for (const auto& tp : group.patterns) {
    encoded->push_back(EncodePattern(store_->dictionary(), tp, schema));
  }
  size_t width = schema.vars().size();
  auto rows = by_subject_.MapPartitionsWithIndex(
      [encoded, width](int,
                                    const std::vector<KeyedTriple>& part) {
        // Bucket the partition's triples by subject.
        std::unordered_map<rdf::TermId, std::vector<rdf::EncodedTriple>,
                           spark::ValueHasher>
            by_subject;
        for (const auto& kv : part) by_subject[kv.first].push_back(kv.second);
        KeyedBatch out{{}, sparql::IdTable(width)};
        sparql::IdTable rows(width);
        sparql::IdTable next(width);
        for (const auto& [subject, triples] : by_subject) {
          rows.Clear();
          rows.AppendRowFilled(sparql::kUnbound);
          for (const auto& ep : *encoded) {
            next.Clear();
            for (size_t r = 0; r < rows.size(); ++r) {
              for (const auto& t : triples) {
                AppendMatch(ep, t, rows.row(r), &next);
              }
            }
            std::swap(rows, next);
            if (rows.empty()) break;
          }
          out.keys.insert(out.keys.end(), rows.size(), subject);
          out.rows.AppendRowsFrom(rows);
        }
        return std::vector<KeyedBatch>{std::move(out)};
      });
  // Per-partition star joins never move rows off the subject's partition.
  return rows.AssumePartitioner(subject_partitioner_);
}

uint64_t HaqwaEngine::GroupCost(const SubjectGroup& group) const {
  uint64_t best = ~0ull;
  for (const auto& tp : group.patterns) {
    best = std::min(best, PredicateCount(store_->dictionary(), stats_, tp));
  }
  return best;
}

Result<plan::PlanPtr> HaqwaEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& bgp) {
  if (store_ == nullptr) return Status::Internal("HAQWA: Load() not called");
  if (bgp.empty()) {
    return plan::ConstantResultPlan(sparql::BindingTable::Unit(), "unit");
  }

  // Fixed schema over all BGP variables.
  const rdf::Dictionary& dict = store_->dictionary();
  auto schema = std::make_shared<const VarSchema>(BgpSchema(bgp));
  size_t width = schema->vars().size();

  // Decompose into locally evaluable sub-queries (subject stars).
  std::vector<SubjectGroup> groups =
      GroupBySubject(bgp, store_->dictionary());
  for (const auto& g : groups) {
    if (g.impossible) {
      return plan::ConstantResultPlan(sparql::BindingTable(schema->vars()),
                                      "impossible pattern");
    }
  }
  // Seed: cheapest group (transfer-cost proxy).
  std::sort(groups.begin(), groups.end(),
            [this](const SubjectGroup& a, const SubjectGroup& b) {
              return GroupCost(a) < GroupCost(b);
            });

  // One locally-evaluable subject star; rows stay on their partition.
  auto star_leaf = [&](const SubjectGroup& group) {
    auto g = std::make_shared<const SubjectGroup>(group);
    std::string detail =
        (group.subject_var.empty() ? "[const]" : "?" + group.subject_var) +
        " (" + std::to_string(group.patterns.size()) +
        (group.patterns.size() == 1 ? " pattern)" : " patterns)");
    auto leaf = plan::MakeScan(
        plan::NodeKind::kLocalStarMatch, plan::AccessPath::kSubjectStar,
        detail, GroupCost(group),
        [this, g, schema](std::vector<plan::PlanPayload>)
            -> Result<plan::PlanPayload> {
          return plan::PlanPayload(EvaluateStarLocal(*g, *schema));
        });
    leaf->out_vars = BgpSchema(group.patterns).vars();
    leaf->subject_var = group.subject_var;
    leaf->max_cardinality = StarScanBound(dict, stats_, group.patterns);
    return leaf;
  };

  // Plan the seed.
  plan::PlanPtr root = star_leaf(groups[0]);
  std::string current_key_var = groups[0].subject_var;  // may be empty

  std::vector<bool> done(groups.size(), false);
  done[0] = true;
  VarSchema bound;
  for (const auto& tp : groups[0].patterns) {
    for (const auto& v : tp.Variables()) bound.Add(v);
  }

  for (size_t step = 1; step < groups.size(); ++step) {
    // Pick the next group sharing a variable with what is bound so far.
    int next = -1;
    std::string link_var;
    for (size_t i = 0; i < groups.size(); ++i) {
      if (done[i]) continue;
      // Prefer linking through the group's subject variable (enables the
      // replica fast path).
      if (!groups[i].subject_var.empty() &&
          bound.IndexOf(groups[i].subject_var) >= 0) {
        next = static_cast<int>(i);
        link_var = groups[i].subject_var;
        break;
      }
      if (next < 0) {
        for (const auto& tp : groups[i].patterns) {
          for (const auto& v : tp.Variables()) {
            if (bound.IndexOf(v) >= 0) {
              next = static_cast<int>(i);
              link_var = v;
              break;
            }
          }
          if (next >= 0) break;
        }
      }
    }
    if (next < 0) {
      // Disconnected: take any remaining group (cartesian).
      for (size_t i = 0; i < groups.size(); ++i) {
        if (!done[i]) {
          next = static_cast<int>(i);
          break;
        }
      }
      link_var.clear();
    }
    const SubjectGroup& group = groups[static_cast<size_t>(next)];
    done[static_cast<size_t>(next)] = true;

    // Workload-aware fast path: the group is a single pattern reached over
    // a subject-object link from the current key variable, and its triples
    // were replicated to the link source's partitions at load time — the
    // join is local (no shuffle).
    if (!link_var.empty() && link_var == group.subject_var &&
        group.patterns.size() == 1 && !group.patterns[0].p.is_variable() &&
        !current_key_var.empty()) {
      std::optional<std::pair<rdf::TermId, rdf::TermId>> replica_key;
      for (const auto& tp : bgp) {
        if (tp.s.is_variable() && tp.s.var() == current_key_var &&
            tp.o.is_variable() && tp.o.var() == link_var &&
            !tp.p.is_variable()) {
          auto pa = store_->dictionary().Lookup(tp.p.term());
          auto pb = store_->dictionary().Lookup(group.patterns[0].p.term());
          if (pa.ok() && pb.ok() && replicas_.contains({*pa, *pb})) {
            replica_key = std::make_pair(*pa, *pb);
          }
          break;
        }
      }
      if (replica_key) {
        auto g = std::make_shared<const SubjectGroup>(group);
        auto key = *replica_key;
        plan::PlanPtr right = plan::MakeScan(
            plan::NodeKind::kPatternScan, plan::AccessPath::kReplica,
            group.patterns[0].ToString(), plan::kNoEstimate, nullptr);
        AnnotateScan(group.patterns[0],
                     PatternScanBound(dict, stats_, group.patterns[0]),
                     right.get());
        root = plan::MakeBinary(
            plan::NodeKind::kPartitionedHashJoin,
            "on ?" + link_var + " via replica (local)", std::move(root),
            std::move(right),
            [this, g, schema, key, width](std::vector<plan::PlanPayload> in)
                -> Result<plan::PlanPayload> {
              auto current = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
              const auto& replica = replicas_.at(key);
              EncodedPattern ep =
                  EncodePattern(store_->dictionary(), g->patterns[0], *schema);
              // Co-partitioned with the replica: no shuffle.
              auto next =
                  JoinKeyedWithTriples(sc_, current, replica, ep, width);
              // Key variable unchanged (still the link source's subject).
              if (!options_.semantic_partitioning) {
                next = next.AssumePartitioner(subject_partitioner_);
              }
              return plan::PlanPayload(std::move(next));
            });
        root->key_vars = {link_var};
        root->partition_local = true;  // replica co-partitioned at load time
        for (const auto& tp : group.patterns) {
          for (const auto& v : tp.Variables()) bound.Add(v);
        }
        continue;
      }
    }

    // Backward fast path: the group's single pattern reaches the current
    // key variable at its *object* and its triples were object-replicated.
    if (!link_var.empty() && link_var == current_key_var &&
        group.patterns.size() == 1 && !group.patterns[0].p.is_variable() &&
        group.patterns[0].o.is_variable() &&
        group.patterns[0].o.var() == link_var) {
      auto pb = store_->dictionary().Lookup(group.patterns[0].p.term());
      if (pb.ok() && object_replicas_.contains(*pb)) {
        auto g = std::make_shared<const SubjectGroup>(group);
        rdf::TermId pb_id = *pb;
        plan::PlanPtr right = plan::MakeScan(
            plan::NodeKind::kPatternScan, plan::AccessPath::kReplica,
            group.patterns[0].ToString(), plan::kNoEstimate, nullptr);
        AnnotateScan(group.patterns[0],
                     PatternScanBound(dict, stats_, group.patterns[0]),
                     right.get());
        root = plan::MakeBinary(
            plan::NodeKind::kPartitionedHashJoin,
            "on ?" + link_var + " via object-replica (local)",
            std::move(root), std::move(right),
            [this, g, schema, pb_id, width](std::vector<plan::PlanPayload> in)
                -> Result<plan::PlanPayload> {
              auto current = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
              const auto& replica = object_replicas_.at(pb_id);
              EncodedPattern ep =
                  EncodePattern(store_->dictionary(), g->patterns[0], *schema);
              // Co-partitioned with the object replica: no shuffle.
              auto next =
                  JoinKeyedWithTriples(sc_, current, replica, ep, width);
              if (!options_.semantic_partitioning) {
                next = next.AssumePartitioner(subject_partitioner_);
              }
              return plan::PlanPayload(std::move(next));
            });
        root->key_vars = {link_var};
        root->partition_local = true;  // object replica is co-partitioned
        for (const auto& tp : group.patterns) {
          for (const auto& v : tp.Variables()) bound.Add(v);
        }
        continue;
      }
    }

    plan::PlanPtr group_leaf = star_leaf(group);

    if (link_var.empty()) {
      // Cartesian of two keyed row sets.
      root = plan::MakeBinary(
          plan::NodeKind::kCartesianProduct, "merge-rows", std::move(root),
          std::move(group_leaf),
          [this, width](std::vector<plan::PlanPayload> in)
              -> Result<plan::PlanPayload> {
            auto current = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
            auto group_rows = std::get<Rdd<KeyedBatch>>(std::move(in[1]));
            // Merged rows keep the left (accumulated) key, like the
            // per-element path did.
            return plan::PlanPayload(CartesianMergeKeyed(
                sc_, current, group_rows, /*keep_left_key=*/true, width));
          });
      current_key_var.clear();
    } else {
      int link_idx = schema->IndexOf(link_var);
      // Hash placement is a pure function of the key, so rows re-keyed by
      // their current key variable keep their placement claim. Semantic
      // placement is a function of the *subject entity*, not of arbitrary
      // key values — no claim.
      bool keep_claim =
          current_key_var == link_var && !options_.semantic_partitioning;
      bool group_keyed_by_link = link_var == group.subject_var;
      root = plan::MakeBinary(
          plan::NodeKind::kPartitionedHashJoin,
          "on ?" + link_var + (keep_claim ? "" : " (re-key)"),
          std::move(root), std::move(group_leaf),
          [this, link_idx, keep_claim, group_keyed_by_link, width](
              std::vector<plan::PlanPayload> in) -> Result<plan::PlanPayload> {
            auto current = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
            auto group_rows = std::get<Rdd<KeyedBatch>>(std::move(in[1]));
            // Re-key current rows by the link variable.
            auto rekeyed_current = RekeyBatches(current, link_idx, width);
            if (keep_claim) {
              rekeyed_current =
                  rekeyed_current.AssumePartitioner(subject_partitioner_);
            }
            Rdd<KeyedBatch> rekeyed_group;
            if (group_keyed_by_link) {
              rekeyed_group =
                  group_rows;  // already keyed & partitioned by subject
            } else {
              rekeyed_group = RekeyBatches(group_rows, link_idx, width);
            }
            return plan::PlanPayload(
                JoinKeyedBatches(sc_, rekeyed_current, rekeyed_group, width));
          });
      root->key_vars = {link_var};
      root->partition_local = keep_claim && group_keyed_by_link;
      current_key_var = link_var;
    }
    for (const auto& tp : group.patterns) {
      for (const auto& v : tp.Variables()) bound.Add(v);
    }
  }

  auto project = plan::MakeUnary(
      plan::NodeKind::kProject, VarsDetail(schema->vars()), std::move(root),
      [schema, width](std::vector<plan::PlanPayload> in)
          -> Result<plan::PlanPayload> {
        auto current = std::get<Rdd<KeyedBatch>>(std::move(in[0]));
        return plan::PlanPayload(
            ToBindingTable(*schema, CollectKeyedRows(current, width)));
      });
  project->key_vars = schema->vars();
  return project;
}

plan::EngineProfile HaqwaEngine::VerifyProfile() const {
  plan::EngineProfile profile;
  profile.engine_name = traits_.name;
  // Both fragmentation modes place a subject's whole star on one partition
  // (hash of the subject, or the subject's class partition).
  profile.subject_partitioned = true;
  profile.star_local_layout = true;
  return profile;
}

}  // namespace rdfspark::systems
