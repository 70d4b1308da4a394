#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace rct::json {

void append_string(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  char* dot = std::to_chars(buf, buf + sizeof(buf), ns / 1000).ptr;
  char* end = std::to_chars(dot, buf + sizeof(buf), 1000 + ns % 1000).ptr;
  *dot = '.';  // "1ddd" -> ".ddd": the 1000 offset keeps the leading zeros
  out.append(buf, end);
}

const Value* Value::find(std::string_view key) const {
  for (auto it = members.rbegin(); it != members.rend(); ++it)
    if (it->key == key) return &it->value;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::out_of_range("missing JSON key '" + std::string(key) + "'");
  return *v;
}

double Value::number() const {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  const bool ok = kind == Kind::kNumber && ec == std::errc() && end == text.data() + text.size();
  return ok ? v : std::numeric_limits<double>::quiet_NaN();
}

std::optional<std::uint64_t> Value::as_u64() const {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  const bool ok = kind == Kind::kNumber && ec == std::errc() && end == text.data() + text.size();
  return ok ? std::optional(v) : std::nullopt;
}

namespace {

/// Recursive-descent reader; every method returns false after recording the
/// first error, so a malformed text unwinds without exceptions.
class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool document(Value& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size() || fail("trailing bytes after the JSON value");
  }

  [[nodiscard]] std::string error() const {
    return "invalid JSON at byte " + std::to_string(pos_) + ": " + error_;
  }

 private:
  bool fail(const char* message) {
    error_ = message;
    return false;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return at_end() ? '\0' : s_[pos_]; }
  [[nodiscard]] bool digit() const { return peek() >= '0' && peek() <= '9'; }

  void skip_ws() {
    while (!at_end() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                         s_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("not a JSON value");
    pos_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    switch (peek()) {
      case '{':
      case '[': return container(out, depth + 1);
      case '"': out.kind = Value::Kind::kString; return string(out.text);
      case 't': out.kind = Value::Kind::kBool; out.boolean = true; return literal("true");
      case 'f': out.kind = Value::Kind::kBool; return literal("false");
      case 'n': return literal("null");
      default: out.kind = Value::Kind::kNumber; return number(out.text);
    }
  }

  /// An object or an array; `depth` counts the containers open around it.
  bool container(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than 64");
    const bool object = s_[pos_++] == '{';
    const char close = object ? '}' : ']';
    out.kind = object ? Value::Kind::kObject : Value::Kind::kArray;
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      Value* slot = nullptr;
      if (object) {
        if (peek() != '"') return fail("expected a string key");
        Member& m = out.members.emplace_back();
        if (!string(m.key)) return false;
        skip_ws();
        if (peek() != ':') return fail("expected ':'");
        ++pos_;
        skip_ws();
        slot = &m.value;
      } else {
        slot = &out.items.emplace_back();
      }
      if (!value(*slot, depth)) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() != close) return fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
      ++pos_;
      return true;
    }
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, kept as raw text.
  bool number(std::string& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (digit()) {
      while (digit()) ++pos_;
    } else {
      return fail("not a JSON value");
    }
    if (peek() == '.') {
      ++pos_;
      if (!digit()) return fail("expected a digit after '.'");
      while (digit()) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digit()) return fail("expected a digit in the exponent");
      while (digit()) ++pos_;
    }
    out.assign(s_.substr(start, pos_ - start));
    return true;
  }

  bool hex4(unsigned& out) {
    const char* p = s_.data() + pos_;
    if (s_.size() - pos_ < 4 || std::from_chars(p, p + 4, out, 16).ptr != p + 4)
      return fail("bad \\u escape");
    pos_ += 4;
    return true;
  }

  /// Decodes \uXXXX (and a following low surrogate) into UTF-8.
  bool unicode_escape(std::string& out) {
    unsigned cp = 0;
    if (!hex4(cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("unpaired low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      unsigned low = 0;
      if (s_.substr(pos_, 2) != "\\u") return fail("unpaired high surrogate");
      pos_ += 2;
      if (!hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("unpaired high surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
      return true;
    }
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;  // continuation bytes
    out.push_back(static_cast<char>(((0xFF << (7 - tail)) & 0xFF) | (cp >> (6 * tail))));
    for (int k = tail - 1; k >= 0; --k)
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F)));
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    for (;;) {
      const std::size_t run = pos_;
      while (!at_end() && s_[pos_] != '"' && s_[pos_] != '\\' &&
             static_cast<unsigned char>(s_[pos_]) >= 0x20)
        ++pos_;
      out.append(s_.substr(run, pos_ - run));
      if (at_end()) return fail("unterminated string");
      if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
      if (s_[pos_] != '\\') return fail("raw control character in string");
      if (++pos_ == s_.size()) return fail("unterminated string");
      const char escape = s_[pos_++];
      const std::size_t named = std::string_view("\"\\/bfnrt").find(escape);
      if (named != std::string_view::npos)
        out.push_back("\"\\/\b\f\n\r\t"[named]);
      else if (escape != 'u')
        return fail("unknown escape");
      else if (!unicode_escape(out))
        return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  Reader reader(text);
  Value out;
  if (reader.document(out)) return out;
  if (error != nullptr) *error = reader.error();
  return std::nullopt;
}

}  // namespace rct::json
