// The one JSON layer: a strict parser, a key-tracking object reader and the
// writer primitives shared by the plan interchange (core/plan_json.h), the
// trace export (obs/trace_json.h) and the bench records (bench_common.h).
//
// The parser reads files from outside the program, so anything beyond
// RFC 8259 and the schemas' needs is a CheckError naming the byte offset
// (rules in DESIGN.md §7): RFC number grammar; integers (no fraction or
// exponent) must fit int64 and every number a double; escapes \" \\ \/ \n
// \t \r and a four-hex-digit ASCII \u only; no raw control characters, no
// null, no duplicate keys, no trailing garbage, at most 256 nesting levels.
// Object keys keep their document order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/check.h"

namespace chimera::json {

struct Value {
  enum class Type { kObject, kArray, kString, kNumber, kBool };
  Type type = Type::kBool;
  std::vector<std::pair<std::string, Value>> object;  ///< document order
  std::vector<Value> array;
  std::string string;
  double number = 0.0;
  bool is_integer = false;  ///< no fraction or exponent: `integer` is exact
  std::int64_t integer = 0;
  bool boolean = false;
};

/// Parses one complete document. Throws CheckError on any violation.
Value parse(const std::string& text);

/// `v` when it has type `t`; otherwise throws naming the field `what`.
const Value& expect(const Value& v, Value::Type t, const std::string& what);

/// An integer that must fit in T (int, long, std::uint64_t, ...).
template <class T>
T as_int(const Value& v, const std::string& what) {
  CHIMERA_CHECK_MSG(v.type == Value::Type::kNumber && v.is_integer,
                    what << " must be an integer");
  CHIMERA_CHECK_MSG(std::in_range<T>(v.integer),
                    what << " = " << v.integer << " is out of range");
  return static_cast<T>(v.integer);
}

/// Strict reader over one object: a missing or wrong-typed key throws, and
/// finish() throws on the first key that no get/find consumed, so a
/// document that reads is one whose every byte was understood.
class ObjectReader {
 public:
  ObjectReader(const Value& v, std::string what);
  const Value* find(const std::string& key);  ///< null when absent
  const Value& get(const std::string& key, Value::Type t);
  template <class T>
  T get_int(const std::string& key) {
    return as_int<T>(get(key, Value::Type::kNumber), what_ + "." + key);
  }
  void finish() const;

 private:
  const Value& v_;
  std::string what_;
  std::vector<bool> seen_;
};

/// String body escaping (no surrounding quotes): quote, backslash and every
/// control character; other bytes pass through.
std::string escape(const std::string& s);

/// %.17g: a finite double round-trips bitwise through the decimal form.
std::string num17(double v);

}  // namespace chimera::json
