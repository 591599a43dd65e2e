#ifndef RDFSPARK_SYSTEMS_S2RDF_H_
#define RDFSPARK_SYSTEMS_S2RDF_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "spark/sql/session.h"
#include "systems/common.h"
#include "systems/engine.h"

namespace rdfspark::systems {

/// S2RDF [24] — "RDF querying with SPARQL on Spark" over the ExtVP schema.
/// Reproduced mechanisms:
///
///  * ExtVP: per predicate-pair semi-join reductions of the vertical
///    partitioning tables, for subject-subject (SS), object-subject (OS)
///    and subject-object (SO) correlations;
///  * a selectivity factor (SF = |ExtVP| / |VP|) threshold above which
///    sub-tables are not materialized, bounding the storage overhead;
///  * SPARQL is translated to SQL (our parser plays Jena ARQ's role) and
///    executed by the Spark SQL layer;
///  * join order: most bound variables first, ties broken by smaller table.
class S2rdfEngine : public BgpEngineBase {
 public:
  struct Options {
    int num_partitions = -1;
    /// ExtVP tables with SF above this are not materialized (1.0 keeps
    /// everything, 0.0 disables ExtVP entirely).
    double selectivity_threshold = 0.25;
    bool enable_extvp = true;
  };

  explicit S2rdfEngine(spark::SparkContext* sc) : S2rdfEngine(sc, Options()) {}
  S2rdfEngine(spark::SparkContext* sc, Options options);

  const EngineTraits& traits() const override { return traits_; }
  Result<LoadStats> Load(const rdf::TripleStore& store) override;
  plan::EngineProfile VerifyProfile() const override;

  /// The SQL emitted for a BGP (exposed for tests and the EXPLAIN example).
  Result<std::string> TranslateBgpToSql(
      const std::vector<sparql::TriplePattern>& bgp) const;

  /// Count of materialized ExtVP tables and their total rows.
  uint64_t num_extvp_tables() const { return num_extvp_tables_; }
  uint64_t extvp_rows() const { return extvp_rows_; }

  Result<plan::PlanPtr> PlanBgp(
      const std::vector<sparql::TriplePattern>& bgp) override;

 protected:
  const rdf::Dictionary& dictionary() const override {
    return store_->dictionary();
  }

 private:
  struct TableInfo {
    std::string name;
    uint64_t rows = 0;
  };

  /// Structured form of the SQL translation: one step per (ordered)
  /// pattern with its table, alias and join conditions. Both the emitted
  /// SQL text and the physical plan tree are assembled from this.
  struct SqlParts {
    struct Step {
      std::string table;
      std::string alias;
      uint64_t rows = 0;
      std::vector<std::string> on;  // join conditions (empty for step 0)
      /// Schema facts for the plan verifier: variables first bound by this
      /// step's table, variables the ON conditions equate, and the
      /// pattern's subject variable (empty when the subject is a constant).
      std::vector<std::string> new_vars;
      std::vector<std::string> on_vars;
      std::string subject_var;
    };
    std::vector<Step> steps;
    std::vector<std::string> where;
    std::vector<std::string> var_order;
    std::unordered_map<std::string, std::string> var_column;
  };

  Result<SqlParts> BuildSqlParts(
      const std::vector<sparql::TriplePattern>& bgp) const;

  /// Best table for pattern `i` given its correlations within the BGP.
  TableInfo ChooseTable(const std::vector<sparql::TriplePattern>& bgp,
                        size_t i) const;

  EngineTraits traits_;
  Options options_;
  const rdf::TripleStore* store_ = nullptr;
  std::unique_ptr<spark::sql::SqlSession> session_;
  /// Table sizes for ordering (name -> rows).
  std::unordered_map<std::string, uint64_t> table_rows_;
  uint64_t num_extvp_tables_ = 0;
  uint64_t extvp_rows_ = 0;
};

}  // namespace rdfspark::systems

#endif  // RDFSPARK_SYSTEMS_S2RDF_H_
