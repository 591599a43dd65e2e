#ifndef RDFSPARK_SPARK_SQL_VALUE_H_
#define RDFSPARK_SPARK_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace rdfspark::spark::sql {

/// Column data types supported by the DataFrame layer.
enum class DataType : uint8_t { kNull, kInt64, kDouble, kString, kBool };

const char* DataTypeName(DataType t);

/// A dynamically-typed cell. monostate encodes SQL NULL.
using Value = std::variant<std::monostate, int64_t, double, std::string, bool>;

/// A row of cells, aligned with a Schema.
using Row = std::vector<Value>;

DataType TypeOf(const Value& v);
bool IsNull(const Value& v);

/// Rendering for examples/debugging ("NULL", quoted strings).
std::string ValueToString(const Value& v);

/// SQL comparison with numeric coercion between int64 and double. NULL
/// compares as incomparable: returns nullopt semantics via Status.
/// cmp < 0, == 0, > 0 like strcmp.
Result<int> CompareValues(const Value& a, const Value& b);

/// Equality used by joins and DISTINCT (NULL != NULL, like SQL).
bool ValuesEqual(const Value& a, const Value& b);

/// Deterministic hash for partitioning (NULL hashes to a fixed value).
uint64_t HashValue(const Value& v);

/// HashValue of a NULL, an int64, a double, a string and a bool cell. A
/// column hashes its cells in place through these, so a cell hashes
/// exactly as the Value read from it.
inline constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;
inline uint64_t HashInt64(int64_t v) {
  return MixHash64(static_cast<uint64_t>(v));
}
inline uint64_t HashDouble(double d) {
  // Hash doubles through their int64 value when integral so that joins
  // between int and double columns hash consistently.
  auto as_int = static_cast<int64_t>(d);
  if (static_cast<double>(as_int) == d) return HashInt64(as_int);
  uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return MixHash64(bits);
}
inline uint64_t HashString(std::string_view s) { return Fnv1a64(s); }
inline uint64_t HashBool(bool b) { return MixHash64(b ? 1 : 2); }

/// Estimated in-memory size for shuffle accounting.
uint64_t EstimateSize(const Value& v);
uint64_t EstimateSize(const Row& row);

/// Named, typed column.
struct Field {
  std::string name;
  DataType type = DataType::kNull;
  bool operator==(const Field&) const = default;
};

/// Ordered list of fields.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  const std::vector<Field>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }

  /// Index of column `name`, or -1.
  int Index(const std::string& name) const;

  std::string ToString() const;

  bool operator==(const Schema&) const = default;

 private:
  std::vector<Field> fields_;
};

}  // namespace rdfspark::spark::sql

#endif  // RDFSPARK_SPARK_SQL_VALUE_H_
