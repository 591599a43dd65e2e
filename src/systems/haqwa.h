#ifndef RDFSPARK_SYSTEMS_HAQWA_H_
#define RDFSPARK_SYSTEMS_HAQWA_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spark/rdd.h"
#include "systems/batch.h"
#include "systems/common.h"
#include "systems/engine.h"
#include "systems/semantic_partitioning.h"

namespace rdfspark::systems {

/// HAQWA [7] — "a hash-based and query workload aware distributed RDF
/// store". Reproduced mechanisms:
///
///  * two-step fragmentation: (1) hash partitioning on triple subjects, so
///    star-shaped queries evaluate locally; (2) workload-aware allocation —
///    triples reachable over subject-object links of frequent queries are
///    replicated into the partition of the link's source subject;
///  * dictionary encoding of string values to integers;
///  * query decomposition into locally-evaluable sub-queries (subject
///    stars), with the seed chosen by minimum transfer cost;
///  * evaluation mapped onto the RDD API (join/filter/count).
class HaqwaEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
    /// SPARQL texts of the frequent query workload driving replication.
    std::vector<std::string> frequent_queries;
    /// Fragment by subject *class* instead of subject hash — the §V
    /// semantic-partitioning direction [27]. Star queries stay local;
    /// class-homogeneous scans touch one partition.
    bool semantic_partitioning = false;
  };

  explicit HaqwaEngine(spark::SparkContext* sc) : HaqwaEngine(sc, Options()) {}
  HaqwaEngine(spark::SparkContext* sc, Options options);

  const EngineTraits& traits() const override { return traits_; }
  Result<LoadStats> Load(const rdf::TripleStore& store) override;
  plan::EngineProfile VerifyProfile() const override;

  /// Number of replicated triples created by workload-aware allocation.
  uint64_t replicated_triples() const { return replicated_triples_; }

  /// The semantic partitioner (null unless the option is on).
  const SemanticPartitioner* semantic_partitioner() const {
    return semantic_.get();
  }

  Result<plan::PlanPtr> PlanBgp(
      const std::vector<sparql::TriplePattern>& bgp) override;

 protected:
  const rdf::Dictionary& dictionary() const override {
    return store_->dictionary();
  }

 private:
  /// Evaluates one subject group locally per partition; each partition's
  /// matches come out as one keyed batch (keyed by the group's subject
  /// value), still subject-partitioned.
  spark::Rdd<KeyedBatch> EvaluateStarLocal(const SubjectGroup& group,
                                           const VarSchema& schema) const;

  /// Cost proxy for seed selection: candidate count of the group's most
  /// selective pattern.
  uint64_t GroupCost(const SubjectGroup& group) const;

  EngineTraits traits_;
  Options options_;
  const rdf::TripleStore* store_ = nullptr;
  rdf::DatasetStatistics stats_;
  spark::PartitionerInfo subject_partitioner_;
  spark::Rdd<KeyedTriple> by_subject_;
  /// (link predicate pA, target predicate pB) -> pB-triples keyed by the
  /// pA-subject whose object reaches them, co-partitioned with by_subject_.
  std::unordered_map<std::pair<rdf::TermId, rdf::TermId>,
                     spark::Rdd<KeyedTriple>, spark::ValueHasher>
      replicas_;
  /// Link-source predicates additionally replicated keyed by *object*, so a
  /// seed sitting at the target end of the link joins locally too ("the
  /// missing triples are replicated into the partitions that contain the
  /// triples of the seed").
  std::unordered_map<rdf::TermId, spark::Rdd<KeyedTriple>,
                     spark::ValueHasher>
      object_replicas_;
  uint64_t replicated_triples_ = 0;
  std::shared_ptr<const SemanticPartitioner> semantic_;
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_HAQWA_H_
