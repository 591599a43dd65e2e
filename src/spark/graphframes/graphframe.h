#ifndef RDFSPARK_SPARK_GRAPHFRAMES_GRAPHFRAME_H_
#define RDFSPARK_SPARK_GRAPHFRAMES_GRAPHFRAME_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "spark/sql/dataframe.h"

namespace rdfspark::spark::graphframes {

/// One "(a)-[e]->(b)" element of a motif pattern.
struct MotifEdge {
  std::string src;   // vertex name; empty = anonymous
  std::string edge;  // edge name; empty = anonymous
  std::string dst;
};

/// Parses a motif pattern: semicolon-separated "(a)-[e]->(b)" elements
/// (names optional: "()-[]->(b)" is valid).
Result<std::vector<MotifEdge>> ParseMotif(std::string_view pattern);

/// A graph represented as two DataFrames — the GraphFrames model [9]: a
/// vertex table (column "id" + attributes) and an edge table (columns
/// "src", "dst" + attributes). "It supports also queries over graphs":
/// FindMotif runs the pattern via DataFrame joins, inheriting the SQL
/// layer's join strategies and metrics.
class GraphFrame {
 public:
  GraphFrame() = default;
  GraphFrame(sql::DataFrame vertices, sql::DataFrame edges)
      : vertices_(std::move(vertices)), edges_(std::move(edges)) {}

  const sql::DataFrame& vertices() const { return vertices_; }
  const sql::DataFrame& edges() const { return edges_; }

  /// Predicates applied *during* matching rather than on the final result:
  /// `edge_predicates[e]` filters element e's edge scan (columns already
  /// renamed, e.g. Col("e.rel")); `vertex_predicates[v]` fires as soon as
  /// column v exists. This keeps labeled-motif searches from exploding
  /// through unconstrained intermediate joins.
  struct MotifOptions {
    std::unordered_map<std::string, sql::Expr> edge_predicates;
    std::unordered_map<std::string, sql::Expr> vertex_predicates;
  };

  /// Structural pattern matching. Output columns: "<v>" (vertex id) for
  /// every named vertex, "<v>.<attr>" for its vertex attributes, and
  /// "<e>.<attr>" for every named edge's attributes.
  Result<sql::DataFrame> FindMotif(std::string_view pattern) const {
    return FindMotif(pattern, MotifOptions());
  }
  Result<sql::DataFrame> FindMotif(std::string_view pattern,
                                   const MotifOptions& options) const;

  /// Returns a new GraphFrame with filtered edges.
  GraphFrame FilterEdges(const sql::Expr& predicate) const {
    return GraphFrame(vertices_, edges_.Filter(predicate));
  }

 private:
  sql::DataFrame vertices_;
  sql::DataFrame edges_;
};

}  // namespace rdfspark::spark::graphframes

#endif  // RDFSPARK_SPARK_GRAPHFRAMES_GRAPHFRAME_H_
