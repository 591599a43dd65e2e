#ifndef RDFSPARK_SYSTEMS_SPARKQL_H_
#define RDFSPARK_SYSTEMS_SPARKQL_H_

#include <unordered_set>
#include <vector>

#include "spark/graphx/graph.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// Node attributes in Spar(k)ql's model: data properties (literal-valued
/// predicates) and rdf:type values are stored inside the node; object
/// properties become graph edges.
struct SparkqlNode {
  rdf::TermId term = 0;
  /// (predicate, literal value) pairs.
  std::vector<std::pair<rdf::TermId, rdf::TermId>> data_properties;
  std::vector<rdf::TermId> types;

  bool operator==(const SparkqlNode&) const = default;
};

uint64_t EstimateSize(const SparkqlNode& n);

/// Spar(k)ql [12] — SPARQL evaluation on GraphX via vertex programs.
/// Reproduced mechanisms:
///
///  * node model: data properties and rdf:type stored as node properties
///    (rdf:type kept in the node despite being an object property, due to
///    its popularity); object properties are edges;
///  * query planning: a breadth-first-search tree over the object-property
///    patterns;
///  * execution: the plan tree is traversed bottom-up; each node receives
///    sub-result tables from its children as messages and combines them
///    with its locally-stored property matches; non-tree (cycle-closing)
///    patterns are verified at the end.
class SparkqlEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
  };

  explicit SparkqlEngine(spark::SparkContext* sc)
      : SparkqlEngine(sc, Options()) {}
  SparkqlEngine(spark::SparkContext* sc, Options options);

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
  EngineTraits traits_;
  Options options_;
  const rdf::TripleStore* store_ = nullptr;
  rdf::DatasetStatistics stats_;
  spark::graphx::Graph<SparkqlNode, rdf::TermId> graph_;
  uint64_t num_vertices_ = 0;
  std::unordered_set<rdf::TermId> data_predicates_;
  rdf::TermId type_predicate_ = ~0ull;
  bool has_type_predicate_ = false;
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_SPARKQL_H_
