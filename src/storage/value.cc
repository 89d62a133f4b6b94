#include "storage/value.h"

#include "common/logging.h"

namespace uqp {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

StringPool& StringPool::Global() {
  static StringPool* pool = new StringPool();
  return *pool;
}

int32_t StringPool::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(strings_.size());
  strings_.push_back(s);
  index_.emplace(s, id);
  return id;
}

const std::string& StringPool::Lookup(int32_t id) const {
  UQP_CHECK(id >= 0 && static_cast<size_t>(id) < strings_.size())
      << "bad string pool id " << id;
  return strings_[id];
}

int64_t Value::AsInt64() const {
  UQP_DCHECK(type == ValueType::kInt64);
  return i;
}

double Value::AsDouble() const {
  switch (type) {
    case ValueType::kInt64:
      return static_cast<double>(i);
    case ValueType::kDouble:
      return d;
    case ValueType::kString:
      UQP_CHECK(false) << "string value is not numeric";
  }
  return 0.0;
}

const std::string& Value::AsString() const {
  UQP_DCHECK(type == ValueType::kString);
  return StringPool::Global().Lookup(s);
}

bool Value::Equals(const Value& o) const {
  return PayloadEquals(type, PayloadOf(*this), o.type, PayloadOf(o));
}

int Value::Compare(const Value& o) const {
  const double a = AsDouble();
  const double b = o.AsDouble();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

uint64_t Value::Hash() const { return PayloadHash(type, PayloadOf(*this)); }

std::string Value::ToString() const {
  switch (type) {
    case ValueType::kInt64:
      return std::to_string(i);
    case ValueType::kDouble:
      return std::to_string(d);
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

}  // namespace uqp
