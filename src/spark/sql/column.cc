#include "spark/sql/column.h"

#include <cassert>
#include <cstddef>

namespace rdfspark::spark::sql {

void Column::Append(const Value& v) {
  ++num_values_;
  bool null = IsNull(v);
  nulls_.push_back(null ? 1 : 0);
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(null ? 0 : std::get<int64_t>(v));
      break;
    case DataType::kDouble:
      doubles_.push_back(null ? 0.0 : std::get<double>(v));
      break;
    case DataType::kBool:
      bools_.push_back(null ? 0 : (std::get<bool>(v) ? 1 : 0));
      break;
    case DataType::kString:
      codes_.push_back(null ? -1 : Intern(std::get<std::string>(v)));
      break;
    case DataType::kNull:
      break;
  }
}

void Column::Reserve(size_t n) {
  nulls_.reserve(num_values_ + n);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(num_values_ + n);
      break;
    case DataType::kDouble:
      doubles_.reserve(num_values_ + n);
      break;
    case DataType::kBool:
      bools_.reserve(num_values_ + n);
      break;
    case DataType::kString:
      codes_.reserve(num_values_ + n);
      break;
    case DataType::kNull:
      break;
  }
}

int32_t Column::Intern(const std::string& s) {
  auto it = dict_index_.find(s);
  if (it != dict_index_.end()) return it->second;
  int32_t code = static_cast<int32_t>(dict_.size());
  dict_.push_back(s);
  dict_index_.emplace(s, code);
  return code;
}

void Column::AppendFrom(const Column& src, size_t i) {
  assert(src.type_ == type_);
  ++num_values_;
  bool null = src.IsNullAt(i);
  nulls_.push_back(null ? 1 : 0);
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(null ? 0 : src.ints_[i]);
      break;
    case DataType::kDouble:
      doubles_.push_back(null ? 0.0 : src.doubles_[i]);
      break;
    case DataType::kBool:
      bools_.push_back(null ? uint8_t{0} : src.bools_[i]);
      break;
    case DataType::kString:
      codes_.push_back(
          null ? -1
               : Intern(src.dict_[static_cast<size_t>(src.codes_[i])]));
      break;
    case DataType::kNull:
      break;
  }
}

void Column::AppendFrom(const Column& src, size_t i, size_t n) {
  assert(src.type_ == type_);
  if (n == 0) return;
  num_values_ += n;
  bool null = src.IsNullAt(i);
  nulls_.insert(nulls_.end(), n, null ? 1 : 0);
  switch (type_) {
    case DataType::kInt64:
      ints_.insert(ints_.end(), n, null ? 0 : src.ints_[i]);
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), n, null ? 0.0 : src.doubles_[i]);
      break;
    case DataType::kBool:
      bools_.insert(bools_.end(), n, null ? uint8_t{0} : src.bools_[i]);
      break;
    case DataType::kString:
      codes_.insert(
          codes_.end(), n,
          null ? -1 : Intern(src.dict_[static_cast<size_t>(src.codes_[i])]));
      break;
    case DataType::kNull:
      break;
  }
}

void Column::AppendRange(const Column& src, size_t begin, size_t end) {
  assert(src.type_ == type_);
  if (begin >= end) return;
  if (num_values_ == 0 && begin == 0 && end == src.num_values_ &&
      type_ != DataType::kNull) {
    // A whole column into an empty one: src's dictionary is already in
    // first-appearance order, which is the order re-interning would give.
    *this = src;
    return;
  }
  if (type_ == DataType::kNull) {
    // Every cell of a kNull column reads back NULL.
    num_values_ += end - begin;
    nulls_.insert(nulls_.end(), end - begin, 1);
    return;
  }
  num_values_ += end - begin;
  auto b = static_cast<std::ptrdiff_t>(begin);
  auto e = static_cast<std::ptrdiff_t>(end);
  nulls_.insert(nulls_.end(), src.nulls_.begin() + b, src.nulls_.begin() + e);
  switch (type_) {
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + b, src.ints_.begin() + e);
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + b,
                      src.doubles_.begin() + e);
      break;
    case DataType::kBool:
      bools_.insert(bools_.end(), src.bools_.begin() + b,
                    src.bools_.begin() + e);
      break;
    case DataType::kString:
      for (size_t i = begin; i < end; ++i) {
        int32_t code = src.codes_[i];
        codes_.push_back(
            code < 0 ? -1 : Intern(src.dict_[static_cast<size_t>(code)]));
      }
      break;
    case DataType::kNull:
      break;
  }
}

Value Column::Get(size_t i) const {
  if (nulls_[i]) return Value{};
  switch (type_) {
    case DataType::kInt64:
      return ints_[i];
    case DataType::kDouble:
      return doubles_[i];
    case DataType::kBool:
      return bools_[i] != 0;
    case DataType::kString:
      return dict_[static_cast<size_t>(codes_[i])];
    case DataType::kNull:
      return Value{};
  }
  return Value{};
}

void Column::GetInto(size_t i, Value* out) const {
  if (IsNullAt(i)) {
    *out = std::monostate{};
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      *out = ints_[i];
      return;
    case DataType::kDouble:
      *out = doubles_[i];
      return;
    case DataType::kBool:
      *out = bools_[i] != 0;
      return;
    case DataType::kString:
      // Assigning onto a held string reuses its buffer.
      *out = dict_[static_cast<size_t>(codes_[i])];
      return;
    case DataType::kNull:
      return;
  }
}

uint64_t Column::CellBytes(size_t i) const {
  if (IsNullAt(i)) return 1;
  if (type_ == DataType::kString) {
    return 16 + dict_[static_cast<size_t>(codes_[i])].size();
  }
  return 8;
}

bool Column::CellsEqual(size_t i, size_t j) const {
  bool ni = IsNullAt(i), nj = IsNullAt(j);
  if (ni || nj) return ni && nj;
  switch (type_) {
    case DataType::kInt64:
      return ints_[i] == ints_[j];
    case DataType::kDouble:
      return doubles_[i] == doubles_[j];
    case DataType::kBool:
      return bools_[i] == bools_[j];
    case DataType::kString:
      return codes_[i] == codes_[j];  // One code per distinct string.
    case DataType::kNull:
      return true;
  }
  return false;
}

void Column::CombineHashes(uint64_t* hashes) const {
  auto fold = [&](auto cell_hash) {
    for (size_t i = 0; i < num_values_; ++i) {
      hashes[i] =
          CombineHash64(hashes[i], nulls_[i] ? kNullHash : cell_hash(i));
    }
  };
  switch (type_) {
    case DataType::kInt64:
      fold([this](size_t i) { return HashInt64(ints_[i]); });
      return;
    case DataType::kDouble:
      fold([this](size_t i) { return HashDouble(doubles_[i]); });
      return;
    case DataType::kBool:
      fold([this](size_t i) { return HashBool(bools_[i] != 0); });
      return;
    case DataType::kString:
      fold([this](size_t i) {
        return HashString(dict_[static_cast<size_t>(codes_[i])]);
      });
      return;
    case DataType::kNull:
      fold([](size_t) { return kNullHash; });
      return;
  }
}

bool Column::NumberAt(size_t i, double* out) const {
  if (IsNullAt(i)) return false;
  if (type_ == DataType::kInt64) {
    *out = static_cast<double>(ints_[i]);
    return true;
  }
  if (type_ == DataType::kDouble) {
    *out = doubles_[i];
    return true;
  }
  return false;
}

bool Column::ValueEquals(size_t i, const Column& other, size_t j) const {
  if (IsNullAt(i) || other.IsNullAt(j)) return false;
  double x, y;
  if (NumberAt(i, &x) && other.NumberAt(j, &y)) return x == y;
  if (type_ != other.type_) return false;
  if (type_ == DataType::kString) {
    return dict_[static_cast<size_t>(codes_[i])] ==
           other.dict_[static_cast<size_t>(other.codes_[j])];
  }
  return bools_[i] == other.bools_[j];  // Both kBool.
}

uint64_t Column::MemoryBytes() const {
  uint64_t total = nulls_.size();
  total += ints_.size() * 8 + doubles_.size() * 8 + bools_.size();
  total += codes_.size() * 4;
  for (const auto& s : dict_) total += 16 + s.size();
  return total;
}

Row RecordBatch::GetRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const Column& c : columns) row.push_back(c.Get(i));
  return row;
}

void RecordBatch::AppendRow(const Row& row) {
  for (size_t i = 0; i < columns.size(); ++i) columns[i].Append(row[i]);
  ++num_rows;
}

uint64_t RecordBatch::MemoryBytes() const {
  uint64_t total = 0;
  for (const Column& c : columns) total += c.MemoryBytes();
  return total;
}

RecordBatch MakeBatch(const Schema& schema) {
  RecordBatch batch;
  batch.columns.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    batch.columns.emplace_back(f.type);
  }
  return batch;
}

}  // namespace rdfspark::spark::sql
