#ifndef RDFSPARK_SYSTEMS_GRAPHFRAMES_ENGINE_H_
#define RDFSPARK_SYSTEMS_GRAPHFRAMES_ENGINE_H_

#include <vector>

#include "spark/graphframes/graphframe.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// Bahrami, Gulati & Abulaish [4] — "efficient processing of SPARQL queries
/// over GraphFrames". Reproduced mechanisms:
///
///  * the input dataset splits into a nodelist and an edgelist DataFrame,
///    forming an unweighted labeled GraphFrame;
///  * query optimization: sub-queries sorted in non-descending predicate
///    frequency order;
///  * local search space pruning: triples whose predicate does not occur in
///    the BGP are discarded, and a smaller temporary graph is built;
///  * query execution: motif-based subgraph matching on the pruned graph.
class GraphFramesEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
    /// Ablation switches for the A7/A8 benches.
    bool enable_frequency_ordering = true;
    bool enable_pruning = true;
  };

  explicit GraphFramesEngine(spark::SparkContext* sc)
      : GraphFramesEngine(sc, Options()) {}
  GraphFramesEngine(spark::SparkContext* sc, Options options);

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
  spark::graphframes::GraphFrame graph_;
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_GRAPHFRAMES_ENGINE_H_
