#include "spark/sql/value.h"

namespace rdfspark::spark::sql {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "null";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kBool:
      return "bool";
  }
  return "unknown";
}

DataType TypeOf(const Value& v) {
  switch (v.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt64;
    case 2:
      return DataType::kDouble;
    case 3:
      return DataType::kString;
    case 4:
      return DataType::kBool;
  }
  return DataType::kNull;
}

bool IsNull(const Value& v) { return v.index() == 0; }

std::string ValueToString(const Value& v) {
  switch (v.index()) {
    case 0:
      return "NULL";
    case 1:
      return std::to_string(std::get<int64_t>(v));
    case 2: {
      std::string s = std::to_string(std::get<double>(v));
      return s;
    }
    case 3:
      return "'" + std::get<std::string>(v) + "'";
    case 4:
      return std::get<bool>(v) ? "true" : "false";
  }
  return "?";
}

namespace {

bool BothNumeric(const Value& a, const Value& b, double* x, double* y) {
  auto num = [](const Value& v, double* out) {
    if (v.index() == 1) {
      *out = static_cast<double>(std::get<int64_t>(v));
      return true;
    }
    if (v.index() == 2) {
      *out = std::get<double>(v);
      return true;
    }
    return false;
  };
  return num(a, x) && num(b, y);
}

}  // namespace

Result<int> CompareValues(const Value& a, const Value& b) {
  if (IsNull(a) || IsNull(b)) {
    return Status::InvalidArgument("NULL is not comparable");
  }
  double x, y;
  if (BothNumeric(a, b, &x, &y)) {
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (TypeOf(a) != TypeOf(b)) {
    return Status::InvalidArgument(
        std::string("cannot compare ") + DataTypeName(TypeOf(a)) + " with " +
        DataTypeName(TypeOf(b)));
  }
  if (TypeOf(a) == DataType::kString) {
    const auto& sa = std::get<std::string>(a);
    const auto& sb = std::get<std::string>(b);
    return sa < sb ? -1 : (sa > sb ? 1 : 0);
  }
  bool ba = std::get<bool>(a), bb = std::get<bool>(b);
  return ba == bb ? 0 : (ba ? 1 : -1);
}

bool ValuesEqual(const Value& a, const Value& b) {
  if (IsNull(a) || IsNull(b)) return false;
  auto cmp = CompareValues(a, b);
  return cmp.ok() && *cmp == 0;
}

uint64_t HashValue(const Value& v) {
  switch (v.index()) {
    case 0:
      return kNullHash;
    case 1:
      return HashInt64(std::get<int64_t>(v));
    case 2:
      return HashDouble(std::get<double>(v));
    case 3:
      return HashString(std::get<std::string>(v));
    case 4:
      return HashBool(std::get<bool>(v));
  }
  return 0;
}

uint64_t EstimateSize(const Value& v) {
  switch (v.index()) {
    case 0:
      return 1;
    case 3:
      return 16 + std::get<std::string>(v).size();
    default:
      return 8;
  }
}

uint64_t EstimateSize(const Row& row) {
  uint64_t total = 16;
  for (const Value& v : row) total += EstimateSize(v);
  return total;
}

int Schema::Index(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += fields_[i].name;
    out += ": ";
    out += DataTypeName(fields_[i].type);
  }
  out += "]";
  return out;
}

}  // namespace rdfspark::spark::sql
