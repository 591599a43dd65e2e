#ifndef RDFSPARK_SYSTEMS_SPARQLGX_H_
#define RDFSPARK_SYSTEMS_SPARQLGX_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "spark/rdd.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// SPARQLGX [13] — vertical partitioning over RDDs. Reproduced mechanisms:
///
///  * storage: one (subject, object) RDD per predicate ("a triple (s p o)
///    is stored in a file named p whose content keeps only s and o"),
///    reducing the memory footprint and making bounded-predicate patterns
///    cheap;
///  * translation: triple patterns map one by one onto the RDD API; each
///    sub-query result is joined with the next via keyBy on a common
///    variable, with a cross product when none is shared;
///  * optimization: statistics (counts of distinct subjects, predicates and
///    objects) reorder the join sequence.
class SparqlgxEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
    /// Disables the statistics-based reordering (for the A7 ablation).
    bool enable_statistics_reordering = true;
  };

  explicit SparqlgxEngine(spark::SparkContext* sc)
      : SparqlgxEngine(sc, Options()) {}
  SparqlgxEngine(spark::SparkContext* sc, Options options);

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
  using SoPair = std::pair<rdf::TermId, rdf::TermId>;

  /// The candidate rows of one pattern as a batch RDD (one fixed-width
  /// IdTable per partition) over `schema`.
  spark::Rdd<sparql::IdTable> PatternRows(const sparql::TriplePattern& tp,
                                          const VarSchema& schema) const;

  EngineTraits traits_;
  Options options_;
  const rdf::TripleStore* store_ = nullptr;
  rdf::DatasetStatistics stats_;
  int num_partitions_ = 0;
  /// Vertical partitions: predicate id -> (s, o) RDD.
  std::unordered_map<rdf::TermId, spark::Rdd<SoPair>> vp_;
  /// Fallback for predicate-variable patterns.
  spark::Rdd<rdf::EncodedTriple> all_triples_;
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_SPARQLGX_H_
