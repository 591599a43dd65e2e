#ifndef RDFSPARK_SPARK_SIZE_ESTIMATOR_H_
#define RDFSPARK_SPARK_SIZE_ESTIMATOR_H_

#include <array>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <type_traits>
#include <utility>
#include <vector>

namespace rdfspark::spark {

/// Estimated in-memory footprint of a record, used for shuffle-byte and
/// storage accounting. Mirrors Spark's SizeEstimator in spirit: strings pay
/// their character payload plus an object-header-like overhead so that the
/// "dictionary encoding shrinks data" assessment has the right shape.
///
/// All overloads are declared before any definition so composite types
/// resolve regardless of nesting order.

inline uint64_t EstimateSize(const std::string& s);
template <typename T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
uint64_t EstimateSize(T);
template <typename A, typename B>
uint64_t EstimateSize(const std::pair<A, B>& p);
template <typename... Ts>
uint64_t EstimateSize(const std::tuple<Ts...>& t);
template <typename T, size_t N>
uint64_t EstimateSize(const std::array<T, N>& a);
template <typename T>
uint64_t EstimateSize(const std::vector<T>& v);
template <typename T>
uint64_t EstimateSize(const std::optional<T>& o);
template <typename T>
uint64_t EstimateSize(const std::shared_ptr<const T>& p);
template <typename K, typename V, typename H, typename E, typename A>
uint64_t EstimateSize(const std::unordered_map<K, V, H, E, A>& m);
template <typename T>
  requires requires(const T& t) {
    { t.EstimatedByteSize() } -> std::convertible_to<uint64_t>;
  }
uint64_t EstimateSize(const T& t);

inline uint64_t EstimateSize(const std::string& s) {
  return 16 + s.size();  // header + payload
}

template <typename T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
uint64_t EstimateSize(T) {
  return sizeof(T);
}

template <typename A, typename B>
uint64_t EstimateSize(const std::pair<A, B>& p) {
  return EstimateSize(p.first) + EstimateSize(p.second);
}

template <typename... Ts>
uint64_t EstimateSize(const std::tuple<Ts...>& t) {
  return std::apply(
      [](const Ts&... xs) { return (uint64_t{0} + ... + EstimateSize(xs)); },
      t);
}

template <typename T, size_t N>
uint64_t EstimateSize(const std::array<T, N>& a) {
  uint64_t total = 0;
  for (const auto& x : a) total += EstimateSize(x);
  return total;
}

template <typename T>
uint64_t EstimateSize(const std::vector<T>& v) {
  uint64_t total = 24;  // vector header
  for (const auto& x : v) total += EstimateSize(x);
  return total;
}

template <typename T>
uint64_t EstimateSize(const std::optional<T>& o) {
  return 1 + (o ? EstimateSize(*o) : 0);
}

/// A shared immutable value (a GraphX vertex attribute) is charged as the
/// value itself: the pointer is how the simulator avoids copying it, not
/// what Spark would serialize. `p` must be non-null.
template <typename T>
uint64_t EstimateSize(const std::shared_ptr<const T>& p) {
  return EstimateSize(*p);
}

template <typename K, typename V, typename H, typename E, typename A>
uint64_t EstimateSize(const std::unordered_map<K, V, H, E, A>& m) {
  uint64_t total = 48;  // table header
  for (const auto& [k, v] : m) total += 8 + EstimateSize(k) + EstimateSize(v);
  return total;
}

/// Types that know their own flat footprint (e.g. sparql::IdTable, whose
/// rows are fixed-width runs in one buffer) report it directly — shuffles
/// then charge `width * sizeof(TermId)` per row instead of a per-vector
/// object header.
template <typename T>
  requires requires(const T& t) {
    { t.EstimatedByteSize() } -> std::convertible_to<uint64_t>;
  }
uint64_t EstimateSize(const T& t) {
  return t.EstimatedByteSize();
}

}  // namespace rdfspark::spark

#endif  // RDFSPARK_SPARK_SIZE_ESTIMATOR_H_
