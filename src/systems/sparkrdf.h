#ifndef RDFSPARK_SYSTEMS_SPARKRDF_H_
#define RDFSPARK_SYSTEMS_SPARKRDF_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spark/rdd.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// SparkRDF [5] — "elastic discreted RDF graph processing engine with
/// distributed memory", built directly on Spark without a graph API.
/// Reproduced mechanisms:
///
///  * MESG (Multi-layer Elastic Sub-Graph) storage: level 1 splits triples
///    into a class index (rdf:type triples, filed by object class) and a
///    relation index (filed by predicate); level 2 adds CR (class-relation)
///    and RC (relation-class) files keyed by the subject's / object's
///    class; level 3 adds CRC files keyed by both classes;
///  * RDSG (Resilient Discreted Semantic SubGraph): index files are loaded
///    on demand into distributed memory with dynamic pre-partitioning on
///    the join variable, so records sharing a variable value land in the
///    same partition;
///  * optimizations: rdf:type patterns are eliminated by passing the
///    variable's class to its other patterns (selecting CR/RC/CRC files);
///    the query plan orders join variables, then the triple patterns per
///    variable.
class SparkRdfEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
    /// Disables rdf:type elimination + class-indexed file selection (A8).
    bool enable_class_indexes = true;
  };

  explicit SparkRdfEngine(spark::SparkContext* sc)
      : SparkRdfEngine(sc, Options()) {}
  SparkRdfEngine(spark::SparkContext* sc, Options options);

  const EngineTraits& traits() const override { return traits_; }
  Result<LoadStats> Load(const rdf::TripleStore& store) override;
  plan::EngineProfile VerifyProfile() const override;

  Result<plan::PlanPtr> PlanBgp(
      const std::vector<sparql::TriplePattern>& bgp) override;

 protected:
  const rdf::Dictionary& dictionary() const override {
    return store_->dictionary();
  }

 private:
  using TripleList = std::vector<rdf::EncodedTriple>;

  /// Picks the smallest MESG file applicable to a pattern, given known
  /// variable classes. Returns nullptr when the combination cannot match.
  const TripleList* SelectFile(
      const sparql::TriplePattern& tp,
      const std::unordered_map<std::string, rdf::TermId>& var_class) const;

  EngineTraits traits_;
  Options options_;
  const rdf::TripleStore* store_ = nullptr;
  int num_partitions_ = 0;
  rdf::TermId type_predicate_ = ~0ull;
  bool has_type_predicate_ = false;

  TripleList all_triples_;
  // Level 1.
  std::unordered_map<rdf::TermId, std::unordered_set<rdf::TermId>>
      class_index_;  // class -> instances
  std::unordered_map<rdf::TermId, TripleList> relation_index_;  // p -> triples
  // Level 2.
  std::unordered_map<std::pair<rdf::TermId, rdf::TermId>, TripleList,
                     spark::ValueHasher>
      cr_index_;  // (subject class, p)
  std::unordered_map<std::pair<rdf::TermId, rdf::TermId>, TripleList,
                     spark::ValueHasher>
      rc_index_;  // (p, object class)
  // Level 3.
  std::unordered_map<std::tuple<rdf::TermId, rdf::TermId, rdf::TermId>,
                     TripleList, spark::ValueHasher>
      crc_index_;  // (subject class, p, object class)
  uint64_t index_records_ = 0;
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_SPARKRDF_H_
