#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
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

/// The interned string id held in a string payload (its low-address four
/// bytes, where Value keeps `s`).
inline int32_t PayloadStringId(uint64_t bits) {
  int32_t id;
  std::memcpy(&id, &bits, sizeof(id));
  return id;
}

/// The number in a numeric payload; int64 promotes to double.
inline double PayloadAsDouble(ValueType type, uint64_t bits) {
  if (type == ValueType::kDouble) {
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  return static_cast<double>(static_cast<int64_t>(bits));
}

/// Hash of the value of type `type` with payload `bits`: the one
/// definition behind Value::Hash and the executor's column-at-a-time key
/// kernels. Int-valued doubles hash like their int64 counterparts so
/// cross-type equi-joins behave. Inline, so a caller that passes a
/// constant type gets the switch folded away.
inline uint64_t PayloadHash(ValueType type, uint64_t bits) {
  switch (type) {
    case ValueType::kInt64:
      return std::hash<int64_t>{}(static_cast<int64_t>(bits)) * 0x9e3779b97f4a7c15ULL;
    case ValueType::kDouble: {
      const double d = PayloadAsDouble(type, bits);
      // The range check comes first: casting NaN, +-inf or |d| >= 2^63 to
      // int64 is undefined behaviour.
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
        const int64_t as_int = static_cast<int64_t>(d);
        if (d == static_cast<double>(as_int)) {
          return std::hash<int64_t>{}(as_int) * 0x9e3779b97f4a7c15ULL;
        }
      }
      return std::hash<double>{}(d) * 0x9e3779b97f4a7c15ULL;
    }
    case ValueType::kString:
      return std::hash<int32_t>{}(PayloadStringId(bits)) * 0xbf58476d1ce4e5b9ULL;
  }
  return 0;
}

/// Equality of two typed payloads, the one definition behind Value::Equals:
/// strings equal only strings with the same pool id; numbers compare as
/// doubles (so NaN equals nothing, and -0.0 equals 0.0).
inline bool PayloadEquals(ValueType ta, uint64_t a, ValueType tb, uint64_t b) {
  if (ta == ValueType::kString || tb == ValueType::kString) {
    return ta == tb && PayloadStringId(a) == PayloadStringId(b);
  }
  return PayloadAsDouble(ta, a) == PayloadAsDouble(tb, b);
}

/// Lightweight non-owning view of a row of Values (the scratch row a join
/// residual decodes the cells it references into).
struct RowRef {
  const Value* data = nullptr;
  int num_columns = 0;

  const Value& operator[](int i) const { return data[i]; }
};

/// Mixes one 64-bit value into a running hash (golden-ratio combine).
/// The mixing function behind multi-column row hashing (joins, grouping).
inline uint64_t HashMix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// FNV-1a 64 over `size` bytes: the one byte-string hash, behind the plan
/// fingerprint (over PlanStructuralKey) and the simulator's EventLogHash.
/// Defined byte by byte, so every standard library computes the same
/// value.
inline uint64_t HashBytes64(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64's finalizer: every output bit depends on every input bit.
/// Applied where the low bits of a hash pick a bucket (the plan
/// fingerprint's shard and slot) or a uniform draw is taken from it.
inline uint64_t HashAvalanche64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace uqp
