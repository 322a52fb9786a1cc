#include "support/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>

namespace chimera::json {

namespace {

constexpr int kMaxDepth = 256;  // bounds the recursion on hostile input

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  /// Skips whitespace; true when input remains.
  bool more() {
    pos_ = std::min(text_.find_first_not_of(" \n\t\r", pos_), text_.size());
    return pos_ < text_.size();
  }

  Value value(int depth) {
    CHIMERA_CHECK_MSG(depth < kMaxDepth,
                      "nesting deeper than " << kMaxDepth << " at offset "
                                             << pos_);
    Value v;
    if (consume('{')) {
      v.type = Value::Type::kObject;
      if (consume('}')) return v;
      do {
        std::string key = string_body();
        expect(':');
        v.object.emplace_back(std::move(key), value(depth + 1));
      } while (consume(','));
      expect('}');
      // Sorted, not pairwise: a hostile object must not cost O(keys^2).
      keys_.clear();
      for (const auto& [k, unused] : v.object) keys_.emplace_back(k);
      std::sort(keys_.begin(), keys_.end());
      const auto dup = std::adjacent_find(keys_.begin(), keys_.end());
      CHIMERA_CHECK_MSG(dup == keys_.end(), "duplicate key \"" << *dup
                                               << "\" in the object ending at "
                                                  "offset " << pos_);
    } else if (consume('[')) {
      v.type = Value::Type::kArray;
      if (consume(']')) return v;
      do v.array.push_back(value(depth + 1));
      while (consume(','));
      expect(']');
    } else if (text_[pos_] == '"') {
      v.type = Value::Type::kString;
      v.string = string_body();
    } else if (text_.compare(pos_, 4, "true") == 0 ||
               text_.compare(pos_, 5, "false") == 0) {
      v.boolean = text_[pos_] == 't';
      pos_ += v.boolean ? 4 : 5;
    } else {
      number(v);
    }
    return v;
  }

 private:
  bool consume(char c) {
    CHIMERA_CHECK_MSG(more(), "unexpected end of JSON input");
    if (text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    CHIMERA_CHECK_MSG(consume(c), "expected '" << c << "', got '"
                                                << text_[pos_] << "' at offset "
                                                << pos_);
  }

  /// True (and consumed) when the next raw byte is one of `set`.
  bool next_in(std::string_view set) {
    if (pos_ >= text_.size() || set.find(text_[pos_]) == set.npos)
      return false;
    ++pos_;
    return true;
  }

  std::size_t digits() {
    const std::size_t from = pos_;
    pos_ = std::min(text_.find_first_not_of("0123456789", pos_), text_.size());
    return pos_ - from;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      CHIMERA_CHECK_MSG(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      CHIMERA_CHECK_MSG(static_cast<unsigned char>(c) >= 0x20,
                        "raw control character at offset " << pos_ - 1);
      if (c != '\\') {
        out += c;
        continue;
      }
      CHIMERA_CHECK_MSG(pos_ < text_.size(), "unterminated escape");
      const char e = text_[pos_++];
      const std::size_t i = std::string_view("\"\\/ntr").find(e);
      if (i != std::string_view::npos) {
        out += "\"\\/\n\t\r"[i];
        continue;
      }
      CHIMERA_CHECK_MSG(e == 'u', "unknown escape '\\" << e << "' at offset "
                                                       << pos_ - 1);
      const char* first = text_.data() + pos_;
      unsigned code = 0;
      const auto [end, ec] = std::from_chars(
          first, first + std::min<std::size_t>(4, text_.size() - pos_), code,
          16);
      CHIMERA_CHECK_MSG(ec == std::errc() && end == first + 4 && code < 0x80,
                        "\\u needs four hex digits naming an ASCII code point "
                        "at offset "
                            << pos_);
      out += static_cast<char>(code);
      pos_ += 4;
    }
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  void number(Value& v) {
    const std::size_t start = pos_;
    next_in("-");
    const std::size_t int_digits = digits();
    CHIMERA_CHECK_MSG(int_digits > 0, "unexpected character '"
                                          << text_[start] << "' at offset "
                                          << start);
    CHIMERA_CHECK_MSG(int_digits == 1 || text_[pos_ - int_digits] != '0',
                      "leading zero at offset " << start);
    v.is_integer = true;
    if (next_in(".")) {
      CHIMERA_CHECK_MSG(digits() > 0, "bad fraction at offset " << start);
      v.is_integer = false;
    }
    if (next_in("eE")) {
      next_in("+-");
      CHIMERA_CHECK_MSG(digits() > 0, "bad exponent at offset " << start);
      v.is_integer = false;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    v.type = Value::Type::kNumber;
    // from_chars, unlike strtod, is locale-independent and reports
    // overflow and underflow to zero as out of range.
    CHIMERA_CHECK_MSG(std::from_chars(first, last, v.number).ec == std::errc(),
                      "number at offset " << start << " is out of range");
    CHIMERA_CHECK_MSG(
        !v.is_integer ||
            std::from_chars(first, last, v.integer).ec == std::errc(),
        "integer at offset " << start << " is outside the int64 range");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::vector<std::string_view> keys_;  ///< scratch for the duplicate check
};

}  // namespace

Value parse(const std::string& text) {
  Parser p(text);
  Value v = p.value(0);
  CHIMERA_CHECK_MSG(!p.more(), "trailing garbage");
  return v;
}

const Value& expect(const Value& v, Value::Type t, const std::string& what) {
  CHIMERA_CHECK_MSG(v.type == t, what << " has the wrong type");
  return v;
}

ObjectReader::ObjectReader(const Value& v, std::string what)
    : v_(expect(v, Value::Type::kObject, what)),
      what_(std::move(what)),
      seen_(v.object.size(), false) {}

const Value* ObjectReader::find(const std::string& key) {
  for (std::size_t i = 0; i < v_.object.size(); ++i)
    if (v_.object[i].first == key) {
      seen_[i] = true;
      return &v_.object[i].second;
    }
  return nullptr;
}

const Value& ObjectReader::get(const std::string& key, Value::Type t) {
  const Value* v = find(key);
  CHIMERA_CHECK_MSG(v != nullptr, what_ << " is missing key \"" << key << '"');
  CHIMERA_CHECK_MSG(v->type == t, what_ << "." << key << " has the wrong type");
  return *v;
}

void ObjectReader::finish() const {
  for (std::size_t i = 0; i < seen_.size(); ++i)
    CHIMERA_CHECK_MSG(seen_[i], what_ << " has unknown key \""
                                      << v_.object[i].first << '"');
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    const std::size_t i = std::string_view("\"\\\n\t\r").find(c);
    if (i != std::string_view::npos) {
      out += '\\';
      out += "\"\\ntr"[i];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace chimera::json
