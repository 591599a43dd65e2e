#ifndef RDFSPARK_SYSTEMS_GRAPHX_SM_H_
#define RDFSPARK_SYSTEMS_GRAPHX_SM_H_

#include <vector>

#include "spark/graphx/graph.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// Kassaie [16] — "SPARQL over GraphX": subgraph matching driven by
/// AggregateMessages. Reproduced mechanisms:
///
///  * vertices labelled with their term and a Match Track (MT) table of
///    partial bindings ending at the vertex; edges labelled with the
///    predicate;
///  * per BGP triple, sendMsg matches the pattern against all graph edges
///    and forwards extended MT rows to the far endpoint; mergeMsg
///    concatenates the incoming tables (one AggregateMessages round per
///    pattern);
///  * after all patterns, the MT tables of the end vertices are joined to
///    produce the final answer (closing patterns of cyclic queries are
///    verified as final filters).
class GraphxSmEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
  };

  explicit GraphxSmEngine(spark::SparkContext* sc)
      : GraphxSmEngine(sc, Options()) {}
  GraphxSmEngine(spark::SparkContext* sc, Options options);

  const EngineTraits& traits() const override { return traits_; }
  Result<LoadStats> Load(const rdf::TripleStore& store) override;

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
  spark::graphx::Graph<rdf::TermId, rdf::TermId> graph_;
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_GRAPHX_SM_H_
