// Regenerates Figure 1 of the paper: the taxonomy of dimensions for
// organizing RDF query processing methods, as a tree annotated with the
// implemented systems that sit in each leaf.

#include <cstdio>
#include <string>

#include "bench_util.h"

namespace rdfspark::bench {
namespace {

std::string SystemsUsing(
    const std::vector<std::unique_ptr<systems::BgpEngineBase>>& engines,
    systems::DataModel model) {
  std::string out;
  for (const auto& e : engines) {
    if (e->traits().data_model != model) continue;
    if (!out.empty()) out += ", ";
    out += e->traits().name;
  }
  return out;
}

std::string SystemsUsing(
    const std::vector<std::unique_ptr<systems::BgpEngineBase>>& engines,
    systems::SparkAbstraction abstraction) {
  std::string out;
  for (const auto& e : engines) {
    bool uses = false;
    for (auto a : e->traits().abstractions) uses |= a == abstraction;
    if (!uses) continue;
    if (!out.empty()) out += ", ";
    out += e->traits().name;
  }
  return out.empty() ? "-" : out;
}

void Run() {
  spark::SparkContext sc(DefaultCluster());
  auto engines = systems::MakeAllEngines(&sc);

  std::printf(
      "FIGURE 1: A taxonomy presenting the dimensions for organizing RDF\n"
      "query processing methods (annotated with the implemented systems)\n\n");
  std::printf("RDF query processing on Apache Spark\n");
  std::printf("|-- Data Model\n");
  std::printf("|   |-- The Triple Model   [%s]\n",
              SystemsUsing(engines, systems::DataModel::kTriple).c_str());
  std::printf("|   `-- The Graph Model    [%s]\n",
              SystemsUsing(engines, systems::DataModel::kGraph).c_str());
  std::printf("`-- Apache Spark Abstraction\n");
  std::printf("    |-- RDD                [%s]\n",
              SystemsUsing(engines, systems::SparkAbstraction::kRdd).c_str());
  std::printf(
      "    |-- DataFrames         [%s]\n",
      SystemsUsing(engines, systems::SparkAbstraction::kDataFrames).c_str());
  std::printf(
      "    |-- Spark SQL          [%s]\n",
      SystemsUsing(engines, systems::SparkAbstraction::kSparkSql).c_str());
  std::printf(
      "    |-- GraphX             [%s]\n",
      SystemsUsing(engines, systems::SparkAbstraction::kGraphX).c_str());
  std::printf(
      "    `-- GraphFrames        [%s]\n",
      SystemsUsing(engines, systems::SparkAbstraction::kGraphFrames).c_str());

  std::printf(
      "\nFurther dimensions (§III), realized as engine options and measured\n"
      "by the assessment benches:\n"
      "  Query Processing            -> bench_table2, bench_query_shapes\n"
      "  Query Processing Optimizations -> bench_optimizers\n"
      "  Data Partitioning           -> bench_partitioning\n"
      "  SPARQL Fragment             -> bench_table2 (+ conformance tests)\n"
      "  System Contribution         -> bench_table2\n");
}

}  // namespace
}  // namespace rdfspark::bench

int main() {
  rdfspark::bench::Run();
  return 0;
}
