#ifndef RDFSPARK_SYSTEMS_HYBRID_H_
#define RDFSPARK_SYSTEMS_HYBRID_H_

#include <string>
#include <utility>
#include <vector>

#include "spark/rdd.h"
#include "spark/sql/dataframe.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// The four BGP evaluation strategies studied by Naacke, Amann & Cure [21]
/// ("SPARQL graph pattern processing with Apache Spark"). Data is hash
/// partitioned on the subject.
enum class HybridMode {
  /// Spark SQL / Catalyst translation: with more than one triple pattern,
  /// degenerates to Cartesian products + filters (the paper's noted
  /// drawback).
  kSparkSqlNaive,
  /// RDD API: every join becomes a partitioned (shuffle) join in the input
  /// order; the whole dataset is read for each triple pattern.
  kRddPartitioned,
  /// DataFrame API: columnar compressed representation; cost-based single
  /// broadcast join when a side is under the size threshold; ignores data
  /// partitioning.
  kDataFrameAuto,
  /// The paper's contribution: broadcast joins combined with partitioned
  /// joins, exploiting the existing subject partitioning, planned by a
  /// greedy statistics-based optimizer.
  kHybrid,
};

const char* HybridModeName(HybridMode mode);

/// Engine for [21]. The mode selects which of the four strategies runs;
/// kHybrid is the paper's proposal and the default.
class HybridEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
    HybridMode mode = HybridMode::kHybrid;
  };

  explicit HybridEngine(spark::SparkContext* sc)
      : HybridEngine(sc, Options()) {}
  HybridEngine(spark::SparkContext* sc, Options options);

  const EngineTraits& traits() const override { return traits_; }
  Result<LoadStats> Load(const rdf::TripleStore& store) override;
  plan::EngineProfile VerifyProfile() const override;

  HybridMode mode() const { return options_.mode; }

  Result<plan::PlanPtr> PlanBgp(
      const std::vector<sparql::TriplePattern>& bgp) override;

 protected:
  const rdf::Dictionary& dictionary() const override {
    return store_->dictionary();
  }

 private:
  using KeyedTriple = std::pair<rdf::TermId, rdf::EncodedTriple>;

  /// Pattern candidates as a DataFrame with one "v_<var>" column per
  /// variable. `subject_partitioned` marks the result as placed by its
  /// subject column (valid when built from the subject-partitioned table).
  Result<spark::sql::DataFrame> PatternDf(const sparql::TriplePattern& tp,
                                          bool subject_partitioned) const;

  Result<plan::PlanPtr> PlanSqlNaive(
      const std::vector<sparql::TriplePattern>& bgp);
  Result<plan::PlanPtr> PlanRdd(const std::vector<sparql::TriplePattern>& bgp);
  Result<plan::PlanPtr> PlanDataFrame(
      const std::vector<sparql::TriplePattern>& bgp);
  Result<plan::PlanPtr> PlanHybrid(
      const std::vector<sparql::TriplePattern>& bgp);

  /// The scan leaf of one pattern in the DataFrame modes: PatternDf at
  /// execution, the distinct-count estimate and scan bound at planning.
  plan::PlanPtr DfScan(const sparql::TriplePattern& tp,
                       bool subject_partitioned) const;

  EngineTraits traits_;
  Options options_;
  const rdf::TripleStore* store_ = nullptr;
  rdf::DatasetStatistics stats_;
  int num_partitions_ = 0;
  spark::Rdd<KeyedTriple> rdd_by_subject_;
  spark::sql::DataFrame df_by_subject_;  // partitioned by "s"
  spark::sql::DataFrame df_plain_;       // same data, placement ignored
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_HYBRID_H_
