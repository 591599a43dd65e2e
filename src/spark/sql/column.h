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

  /// Room for `n` more cells, so an operator that knows its output size
  /// writes each cell once.
  void Reserve(size_t n);

  /// Typed appends from `src`, a column of this column's type: cell `i`;
  /// cell `i` `n` times; cells [begin, end). Each leaves the column exactly
  /// as Append(src.Get(i)) per cell would, strings interned in the same
  /// order, without building a Value.
  void AppendFrom(const Column& src, size_t i);
  void AppendFrom(const Column& src, size_t i, size_t n);
  void AppendRange(const Column& src, size_t begin, size_t end);

  /// Reads a value back.
  Value Get(size_t i) const;

  /// Get(i) into `out`, reusing its storage (a string keeps its buffer).
  void GetInto(size_t i, Value* out) const;

  /// EstimateSize(Get(i)), without building the Value.
  uint64_t CellBytes(size_t i) const;

  /// Get(i) == Get(j) under Value's operator== (NULL equals NULL here).
  bool CellsEqual(size_t i, size_t j) const;

  /// Whether cell `i` is NULL.
  bool IsNullAt(size_t i) const {
    return nulls_[i] != 0 || type_ == DataType::kNull;
  }

  /// Folds every cell's HashValue(Get(i)), read in place, into its entry
  /// of `hashes` (one per cell): hashes[i] = CombineHash64(hashes[i], h).
  /// A whole column at a time, so rows hash independently of each other.
  void CombineHashes(uint64_t* hashes) const;

  /// ValuesEqual(Get(i), other.Get(j)), read in place: a NULL equals
  /// nothing, int64 and double cells compare as numbers, and cells of any
  /// other two different types never match.
  bool ValueEquals(size_t i, const Column& other, size_t j) const;

  /// Estimated resident bytes (dictionary counted once).
  uint64_t MemoryBytes() const;

  /// Same cells in the same storage, dictionary codes included.
  bool operator==(const Column&) const = default;

 private:
  /// Cell `i` as a number, when it is a non-NULL int64 or double.
  bool NumberAt(size_t i, double* out) const;
  int32_t Intern(const std::string& s);

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
/// only a batch built by MakeBatch may be appended to. Operators move
/// cells column to column (Column::AppendFrom/AppendRange); GetRow and
/// AppendRow are for callers that need a Row (Collect, FromRows, Sort,
/// GroupByAgg, Limit, ToString).
struct RecordBatch {
  std::vector<Column> columns;
  size_t num_rows = 0;

  Row GetRow(size_t i) const;
  void AppendRow(const Row& row);
  uint64_t MemoryBytes() const;

  bool operator==(const RecordBatch&) const = default;
};

/// Builds an empty batch matching `schema`.
RecordBatch MakeBatch(const Schema& schema);

}  // namespace rdfspark::spark::sql

#endif  // RDFSPARK_SPARK_SQL_COLUMN_H_
