#include "json/value.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

namespace slices::json {
namespace {

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void escape_into(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void number_into(std::string& out, double d) {
  // Integers within the exactly-representable range print without a
  // fractional part so ids round-trip textually. Everything else prints
  // as printf's "%.17g", which is what to_chars' general format with a
  // precision is defined to produce — without the locale or the buffer
  // bookkeeping.
  char buf[32];
  std::to_chars_result r;
  if (std::abs(d) < 9.0e15 && d == static_cast<double>(static_cast<std::int64_t>(d))) {
    r = std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17);
  }
  out.append(buf, r.ptr);
}

void serialize_into(std::string& out, const Value& v, int indent, int depth) {
  const bool pretty = indent > 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };

  switch (v.type()) {
    case Type::null: out += "null"; break;
    case Type::boolean: out += v.as_bool() ? "true" : "false"; break;
    case Type::number: number_into(out, v.as_number()); break;
    case Type::string: escape_into(out, v.as_string()); break;
    case Type::array: {
      const Array& arr = v.as_array();
      out.push_back('[');
      bool first = true;
      for (const Value& item : arr) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        serialize_into(out, item, indent, depth + 1);
      }
      if (!arr.empty()) newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Type::object: {
      const Object& obj = v.as_object();
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        escape_into(out, key);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        serialize_into(out, item, indent, depth + 1);
      }
      if (!obj.empty()) newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Parsing — recursive descent with explicit depth limit.
// ---------------------------------------------------------------------------

constexpr int kMaxDepth = 256;

class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options) : text_(text), options_(options) {}

  Result<Value> run() {
    skip_ws();
    Result<Value> v = parse_value(0);
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return v;
  }

 private:
  Error fail(std::string why) const {
    if (options_.error_offset != nullptr) *options_.error_offset = pos_;
    return make_error(Errc::protocol_error,
                      "json parse error at byte " + std::to_string(pos_) + ": " + std::move(why));
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view lit) noexcept {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Result<Value> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n': return consume_literal("null") ? Result<Value>(Value(nullptr)) : fail("bad literal");
      case 't': return consume_literal("true") ? Result<Value>(Value(true)) : fail("bad literal");
      case 'f': return consume_literal("false") ? Result<Value>(Value(false)) : fail("bad literal");
      case '"': return parse_string_value();
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof()) {
      const char c = peek();
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    double d = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc{} || ptr != last) return fail("malformed number");
    if (!std::isfinite(d)) return fail("non-finite number");
    return Value(d);
  }

  Result<std::string> parse_string_raw() {
    assert(peek() == '"');
    ++pos_;
    std::string out;
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) return fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs are rejected —
            // config payloads in this system are ASCII).
            if (code >= 0xD800 && code <= 0xDFFF) return fail("surrogate escapes unsupported");
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  Result<Value> parse_string_value() {
    Result<std::string> s = parse_string_raw();
    if (!s.ok()) return s.error();
    return Value(std::move(s).value());
  }

  Result<Value> parse_array(int depth) {
    assert(peek() == '[');
    ++pos_;
    Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      skip_ws();
      Result<Value> item = parse_value(depth + 1);
      if (!item.ok()) return item;
      arr.push_back(std::move(item).value());
      skip_ws();
      if (eof()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Value(std::move(arr));
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  Result<Value> parse_object(int depth) {
    assert(peek() == '{');
    ++pos_;
    Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key string");
      Result<std::string> key = parse_string_raw();
      if (!key.ok()) return key.error();
      skip_ws();
      if (eof() || text_[pos_++] != ':') return fail("expected ':' after key");
      skip_ws();
      Result<Value> item = parse_value(depth + 1);
      if (!item.ok()) return item;
      if (options_.reject_duplicate_keys && obj.contains(key.value())) {
        return fail("duplicate object key '" + key.value() + "'");
      }
      obj.insert_or_assign(std::move(key).value(), std::move(item).value());
      skip_ws();
      if (eof()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Value(std::move(obj));
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  ParseOptions options_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string serialize(const Value& v) {
  std::string out;
  serialize_into(out, v, /*indent=*/0, /*depth=*/0);
  return out;
}

void serialize(const Value& v, std::string& out) {
  out.clear();
  serialize_into(out, v, /*indent=*/0, /*depth=*/0);
}

std::string serialize_pretty(const Value& v) {
  std::string out;
  serialize_into(out, v, /*indent=*/2, /*depth=*/0);
  return out;
}

void append_escaped(std::string& out, std::string_view s) { escape_into(out, s); }

void append_number(std::string& out, double d) { number_into(out, d); }

Result<Value> parse(std::string_view text) { return Parser(text, ParseOptions{}).run(); }

Result<Value> parse(std::string_view text, const ParseOptions& options) {
  return Parser(text, options).run();
}

}  // namespace slices::json
