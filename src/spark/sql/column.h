#ifndef RDFSPARK_SPARK_SQL_COLUMN_H_
#define RDFSPARK_SPARK_SQL_COLUMN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "spark/sql/value.h"

namespace rdfspark::spark::sql {

/// One column chunk: typed columnar storage with dictionary encoding for
/// strings. This is the mechanism behind the paper's §III/§IV.A.3 claim
/// that DataFrames' "columnar compressed in-memory representation" manages
/// up to 10x larger datasets than row RDDs: repeated strings are stored
/// once in the dictionary and referenced by 32-bit codes.
class Column {
 public:
  explicit Column(DataType type = DataType::kNull) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return num_values_; }

  /// Appends a value (must match the column type or be NULL).
  void Append(const Value& v);

  /// Reads a value back.
  Value Get(size_t i) const;

  /// Estimated resident bytes (dictionary counted once).
  uint64_t MemoryBytes() const;

 private:
  DataType type_;
  size_t num_values_ = 0;
  std::vector<uint8_t> nulls_;  // 1 = null

  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;

  // String storage: dictionary + codes.
  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
};

/// A horizontal slice of a DataFrame: one column chunk per field. One batch
/// per partition. A zero-row batch may carry no columns at all (the slot of
/// a task that had no rows to produce); MemoryBytes is 0 either way, and
/// only a batch built by MakeBatch may be appended to.
struct RecordBatch {
  std::vector<Column> columns;
  size_t num_rows = 0;

  Row GetRow(size_t i) const;
  void AppendRow(const Row& row);
  uint64_t MemoryBytes() const;
};

/// Builds an empty batch matching `schema`.
RecordBatch MakeBatch(const Schema& schema);

}  // namespace rdfspark::spark::sql

#endif  // RDFSPARK_SPARK_SQL_COLUMN_H_
