#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

namespace uqp {

/// Column data types. Strings are dictionary-interned (see StringPool) so
/// every value has a fixed 8-byte payload: tables store one payload array
/// per column (the type lives in the schema). Intermediate results store
/// row ids into those arrays and decode a 16-byte tagged Value only where
/// an operator reads a cell.
enum class ValueType : uint8_t { kInt64, kDouble, kString };

const char* ValueTypeName(ValueType t);

/// Process-wide string interning pool. Ids are dense and stable for the
/// lifetime of the process; all randomized flows in the library are
/// deterministic, so id assignment is reproducible run to run.
class StringPool {
 public:
  static StringPool& Global();

  /// Returns the id for `s`, interning it if necessary.
  int32_t Intern(const std::string& s);

  /// Returns the string for an id; the id must be valid.
  const std::string& Lookup(int32_t id) const;

  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int32_t> index_;
};

/// A fixed-size tagged scalar cell.
struct Value {
  ValueType type = ValueType::kInt64;
  union {
    int64_t i;
    double d;
    int32_t s;  ///< StringPool id
  };

  Value() : i(0) {}

  static Value Int64(int64_t v) {
    Value out;
    out.type = ValueType::kInt64;
    out.i = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type = ValueType::kDouble;
    out.d = v;
    return out;
  }
  static Value String(const std::string& v) {
    Value out;
    out.type = ValueType::kString;
    out.s = StringPool::Global().Intern(v);
    return out;
  }
  static Value InternedString(int32_t id) {
    Value out;
    out.type = ValueType::kString;
    out.s = id;
    return out;
  }

  int64_t AsInt64() const;
  /// Numeric coercion: int64 promotes to double.
  double AsDouble() const;
  const std::string& AsString() const;

  /// Total order within a type: numeric order for numbers, pool-id equality
  /// semantics for strings (string ordering is only used for equality and
  /// hashing; range predicates are restricted to numeric columns).
  bool Equals(const Value& o) const;
  /// Numeric-only three-way comparison; both values must be numeric.
  int Compare(const Value& o) const;

  uint64_t Hash() const;

  std::string ToString() const;
};

static_assert(sizeof(Value) == 16, "Value must stay a compact 16-byte cell");

/// A Value's raw 8-byte payload (int64, double or interned string id): the
/// cell format of the column store. Copied in and out with memcpy, so a
/// value round-trips bit for bit; its type is held by the column.
inline uint64_t PayloadOf(const Value& v) {
  uint64_t bits;
  static_assert(sizeof(v.i) == sizeof(bits), "value payload must be 8 bytes");
  std::memcpy(&bits, &v.i, sizeof(bits));
  return bits;
}

/// The Value of type `type` whose payload is `bits` (inverse of PayloadOf).
inline Value ValueOfPayload(ValueType type, uint64_t bits) {
  Value v;
  v.type = type;
  std::memcpy(&v.i, &bits, sizeof(bits));
  return v;
}

/// Lightweight non-owning view of a row of Values (the scratch row a join
/// residual decodes the cells it references into).
struct RowRef {
  const Value* data = nullptr;
  int num_columns = 0;

  const Value& operator[](int i) const { return data[i]; }
};

/// Mixes one 64-bit value into a running hash (golden-ratio combine).
/// The single mixing function behind multi-column row hashing (joins,
/// grouping) and the structural expr/plan fingerprints.
inline uint64_t HashMix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace uqp
