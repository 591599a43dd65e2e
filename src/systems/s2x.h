#ifndef RDFSPARK_SYSTEMS_S2X_H_
#define RDFSPARK_SYSTEMS_S2X_H_

#include <atomic>
#include <vector>

#include "spark/graphx/graph.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// S2X [23] — "graph-parallel querying of RDF with GraphX". Reproduced
/// mechanisms:
///
///  * RDF as a property graph: vertices carry subject/object terms plus a
///    structure of candidate query variables; edges carry the predicate;
///  * BGP matching: every triple pattern is first matched independently,
///    then match candidates are iteratively validated against the candidate
///    sets of adjacent vertices until a fixpoint ("until they do not change
///    anymore"), with invalid candidates discarded;
///  * the final result is assembled from the per-pattern matches with
///    data-parallel joins, and the remaining SPARQL operators run on the
///    data-parallel side (BGP+ fragment).
class S2xEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
    int max_iterations = 32;
  };

  explicit S2xEngine(spark::SparkContext* sc) : S2xEngine(sc, Options()) {}
  S2xEngine(spark::SparkContext* sc, Options options);

  const EngineTraits& traits() const override { return traits_; }
  Result<LoadStats> Load(const rdf::TripleStore& store) override;

  /// Validation rounds of the last BGP evaluation. With concurrent
  /// queries on one engine this reports whichever evaluation wrote last.
  int last_iterations() const {
    return last_iterations_.load(std::memory_order_relaxed);
  }

  /// S2X plans defer the whole-BGP matching fixpoint into a shared
  /// MatchState that the first executed scan fills and the assembly joins
  /// consume (match rows are moved out) — a plan is good for exactly one
  /// execution, so the serving plan cache must not reuse it. Running a
  /// spent plan again fails with InvalidArgument.
  bool ReusablePlans() const override { return false; }

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
  /// Written by the matching fixpoint inside plan execution; atomic so
  /// concurrent queries on one shared engine (the serving layer) do not
  /// race the counter.
  std::atomic<int> last_iterations_{0};
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_S2X_H_
