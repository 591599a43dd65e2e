#ifndef RDFSPARK_SPARK_GRAPHX_GRAPH_H_
#define RDFSPARK_SPARK_GRAPHX_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "spark/rdd.h"

namespace rdfspark::spark::graphx {

using VertexId = int64_t;

/// A directed edge with attribute ED.
template <typename ED>
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  ED attr{};

  bool operator==(const Edge&) const = default;
};

template <typename ED>
uint64_t HashValue(const Edge<ED>& e) {
  using rdfspark::spark::HashValue;
  return CombineHash64(CombineHash64(HashValue(e.src), HashValue(e.dst)),
                       HashValue(e.attr));
}

template <typename ED>
uint64_t EstimateSize(const Edge<ED>& e) {
  using rdfspark::spark::EstimateSize;
  return 16 + EstimateSize(e.attr);
}

/// A vertex attribute as the graph holds it: one immutable object per
/// vertex, referenced by every shuffle bucket, join output and triplet that
/// carries it (GraphX ships attributes to edge partitions by reference, not
/// one copy per edge). Shuffles and retention still charge the attribute's
/// own size (size_estimator.h's shared_ptr overload).
template <typename VD>
using VertexAttr = std::shared_ptr<const VD>;

/// An edge with both endpoint attributes attached (GraphX's EdgeTriplet).
template <typename VD, typename ED>
struct EdgeTriplet {
  VertexId src = 0;
  VertexId dst = 0;
  ED attr{};
  VertexAttr<VD> src_attr;
  VertexAttr<VD> dst_attr;
};

template <typename VD, typename ED>
uint64_t EstimateSize(const EdgeTriplet<VD, ED>& t) {
  using rdfspark::spark::EstimateSize;
  return 16 + EstimateSize(t.attr) + EstimateSize(t.src_attr) +
         EstimateSize(t.dst_attr);
}

/// A property graph: a vertex RDD (id -> VD) and an edge RDD, mirroring
/// GraphX's Graph[VD, ED] ("Resilient Distributed Graph"). All bulk
/// operations run through the RDD layer so shuffle/messaging costs are
/// accounted.
template <typename VD, typename ED>
class Graph {
 public:
  using VertexRdd = Rdd<std::pair<VertexId, VertexAttr<VD>>>;

  Graph() = default;
  Graph(VertexRdd vertices, Rdd<Edge<ED>> edges)
      : vertices_(std::move(vertices)), edges_(std::move(edges)) {}

  /// Builds a graph, deriving missing vertices from edge endpoints; they
  /// all share one `default_attr` object.
  static Graph FromEdges(SparkContext* sc, std::vector<Edge<ED>> edges,
                         VD default_attr, int num_partitions = -1) {
    auto edge_rdd = Parallelize(sc, std::move(edges), num_partitions);
    auto vertex_ids =
        edge_rdd
            .FlatMap([](const Edge<ED>& e) {
              return std::vector<VertexId>{e.src, e.dst};
            })
            .Distinct();
    auto vertices = vertex_ids.Map(
        [attr = std::make_shared<const VD>(std::move(default_attr))](
            const VertexId& id) {
          return std::pair<VertexId, VertexAttr<VD>>(id, attr);
        });
    return Graph(vertices, edge_rdd);
  }

  const VertexRdd& vertices() const { return vertices_; }
  const Rdd<Edge<ED>>& edges() const { return edges_; }
  SparkContext* context() const { return edges_.context(); }

  uint64_t NumVertices() const { return vertices_.Count(); }
  uint64_t NumEdges() const { return edges_.Count(); }

  /// GraphX's outerJoinVertices: every vertex is rewritten, receiving the
  /// joined value as an optional; the vertex type may change.
  /// f(id, attr, optional<U>) -> VD2, which becomes the vertex's new shared
  /// attribute.
  template <typename U, typename F>
  auto OuterJoinVertices(const Rdd<std::pair<VertexId, U>>& table, F f) const
      -> Graph<std::invoke_result_t<F, VertexId, const VD&,
                                    const std::optional<U>&>,
               ED> {
    using VD2 = std::invoke_result_t<F, VertexId, const VD&,
                                     const std::optional<U>&>;
    auto joined = vertices_.LeftOuterJoin(table).Map(
        [f](const std::pair<VertexId,
                            std::pair<VertexAttr<VD>, std::optional<U>>>& kv) {
          return std::pair<VertexId, VertexAttr<VD2>>(
              kv.first, std::make_shared<const VD2>(f(
                            kv.first, *kv.second.first, kv.second.second)));
        });
    return Graph<VD2, ED>(joined, edges_);
  }

  /// The triplets view: every edge with both endpoint attributes. Costs two
  /// joins (vertex attrs ship to edge partitions), as in GraphX.
  Rdd<EdgeTriplet<VD, ED>> Triplets() const {
    using WithSrc = std::pair<Edge<ED>, VertexAttr<VD>>;
    auto by_src = edges_.KeyBy([](const Edge<ED>& e) { return e.src; });
    auto with_src = by_src.Join(vertices_);
    auto by_dst =
        with_src.Map([](const std::pair<VertexId, WithSrc>& kv) {
          return std::pair<VertexId, WithSrc>(kv.second.first.dst, kv.second);
        });
    auto with_both = by_dst.Join(vertices_);
    return with_both.Map(
        [](const std::pair<VertexId, std::pair<WithSrc, VertexAttr<VD>>>&
               kv) {
          EdgeTriplet<VD, ED> t;
          t.src = kv.second.first.first.src;
          t.dst = kv.second.first.first.dst;
          t.attr = kv.second.first.first.attr;
          t.src_attr = kv.second.first.second;
          t.dst_attr = kv.second.second;
          return t;
        });
  }

  /// GraphX's aggregateMessages: `send` inspects a triplet and emits
  /// (vertex, message) pairs; `merge` combines messages per vertex.
  /// Message traffic is recorded in the metrics.
  template <typename M, typename SendFn, typename MergeFn>
  Rdd<std::pair<VertexId, M>> AggregateMessages(SendFn send,
                                                MergeFn merge) const {
    SparkContext* sc = context();
    sc->RecordSuperstep();  // one graph-parallel round
    auto messages = Triplets().FlatMap(
        [send, sc](const EdgeTriplet<VD, ED>& t) {
          std::vector<std::pair<VertexId, M>> out = send(t);
          // An empty send charges nothing: skip the call, not just the add.
          if (!out.empty()) sc->RecordMessages(out.size());
          return out;
        });
    return messages.ReduceByKey(merge);
  }

 private:
  VertexRdd vertices_;
  Rdd<Edge<ED>> edges_;
};

}  // namespace rdfspark::spark::graphx

#endif  // RDFSPARK_SPARK_GRAPHX_GRAPH_H_
