#ifndef RDFSPARK_SPARK_SQL_SESSION_H_
#define RDFSPARK_SPARK_SQL_SESSION_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "spark/context.h"
#include "spark/sql/optimizer.h"
#include "spark/sql/sql_parser.h"

namespace rdfspark::spark::sql {

/// The Spark SQL entry point: a table catalog plus parse → optimize →
/// execute. Engines register their (ExtVP/VP) tables here and submit SQL
/// text, as S2RDF does on real Spark.
class SqlSession {
 public:
  explicit SqlSession(SparkContext* sc) : sc_(sc) {}

  SparkContext* context() const { return sc_; }

  /// Registers (or replaces) a table.
  void RegisterTable(const std::string& name, DataFrame df) {
    catalog_[name] = std::move(df);
  }
  Result<DataFrame> Table(const std::string& name) const;
  const Catalog& catalog() const { return catalog_; }

  Optimizer::Options& optimizer_options() { return optimizer_options_; }

  /// Parses, optimizes and executes a SQL query.
  Result<DataFrame> Sql(std::string_view query) const;

  /// Returns the optimized logical plan as text (EXPLAIN).
  Result<std::string> Explain(std::string_view query) const;

  /// Executes an already-built logical plan.
  Result<DataFrame> Execute(const PlanPtr& plan) const;

 private:
  SparkContext* sc_;
  Catalog catalog_;
  Optimizer::Options optimizer_options_;
};

}  // namespace rdfspark::spark::sql

#endif  // RDFSPARK_SPARK_SQL_SESSION_H_
