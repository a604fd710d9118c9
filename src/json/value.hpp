#pragma once
// JSON document model used by the REST layer between domain controllers
// and the end-to-end orchestrator (the paper exchanges monitoring data
// and configuration over REST APIs).
//
// Design: a single variant-backed Value with checked accessors. Parsing
// returns Result<Value> (wire data is untrusted); accessors on a Value a
// caller has already validated assert instead.

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.hpp"

namespace slices::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps serialization deterministic (sorted keys), which the
/// tests and golden files rely on.
using Object = std::map<std::string, Value, std::less<>>;

enum class Type { null, boolean, number, string, array, object };

/// A JSON value (null / bool / double / string / array / object).
class Value {
 public:
  Value() noexcept : v_(nullptr) {}
  Value(std::nullptr_t) noexcept : v_(nullptr) {}            // NOLINT
  Value(bool b) noexcept : v_(b) {}                          // NOLINT
  Value(double d) noexcept : v_(d) {}                        // NOLINT
  Value(int i) noexcept : v_(static_cast<double>(i)) {}      // NOLINT
  Value(std::int64_t i) noexcept : v_(static_cast<double>(i)) {}  // NOLINT
  Value(std::uint64_t i) noexcept : v_(static_cast<double>(i)) {}  // NOLINT
  Value(const char* s) : v_(std::string(s)) {}               // NOLINT
  Value(std::string s) noexcept : v_(std::move(s)) {}        // NOLINT
  Value(std::string_view s) : v_(std::string(s)) {}          // NOLINT
  Value(Array a) noexcept : v_(std::move(a)) {}              // NOLINT
  Value(Object o) noexcept : v_(std::move(o)) {}             // NOLINT

  [[nodiscard]] Type type() const noexcept {
    return static_cast<Type>(v_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::null; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::boolean; }
  [[nodiscard]] bool is_number() const noexcept { return type() == Type::number; }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::string; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::array; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::object; }

  // Checked accessors (assert on type mismatch — caller validated shape).
  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] double as_number() const { return std::get<double>(v_); }
  [[nodiscard]] std::int64_t as_int() const { return static_cast<std::int64_t>(std::get<double>(v_)); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v_); }
  [[nodiscard]] Array& as_array() { return std::get<Array>(v_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(v_); }
  [[nodiscard]] Object& as_object() { return std::get<Object>(v_); }

  /// Object member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept {
    if (!is_object()) return nullptr;
    const auto& obj = std::get<Object>(v_);
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }

  /// Fallible typed getters for untrusted documents.
  [[nodiscard]] Result<double> get_number(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr || !v->is_number())
      return make_error(Errc::protocol_error, "missing/invalid number field '" + std::string(key) + "'");
    return v->as_number();
  }
  [[nodiscard]] Result<std::string> get_string(std::string_view key) const {
    const Value* v = find(key);
    if (v == nullptr || !v->is_string())
      return make_error(Errc::protocol_error, "missing/invalid string field '" + std::string(key) + "'");
    return v->as_string();
  }

  /// Mutating object index (creates the member, like std::map).
  Value& operator[](const std::string& key) {
    if (!is_object()) v_ = Object{};
    return std::get<Object>(v_)[key];
  }

  friend bool operator==(const Value& a, const Value& b) noexcept { return a.v_ == b.v_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Largest integer a JSON number (an IEEE double) carries exactly.
inline constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

/// Range-checked integer decoding of an untrusted number: `*v`
/// truncated toward zero, when `v` is a finite number whose truncation
/// lies in [lo, hi]; nullopt otherwise (absent, not a number, NaN/inf,
/// or out of range). A bare static_cast of a wire double is undefined
/// behaviour outside the target type's range — decode through this.
template <typename Int>
[[nodiscard]] std::optional<Int> to_integer(const Value* v,
                                            Int lo = std::numeric_limits<Int>::min(),
                                            Int hi = std::numeric_limits<Int>::max()) noexcept {
  static_assert(std::numeric_limits<Int>::is_integer);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double t = std::trunc(v->as_number());
  // Every Int lies in [min, 2^digits), and both bounds are exact doubles.
  const double limit = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  if (!(t >= static_cast<double>(std::numeric_limits<Int>::min()) && t < limit)) {
    return std::nullopt;
  }
  const Int out = static_cast<Int>(t);
  if (out < lo || out > hi) return std::nullopt;
  return out;
}

/// Serialize to compact JSON (no whitespace). Deterministic: object
/// members emit in key order.
[[nodiscard]] std::string serialize(const Value& v);

/// Serialize compact JSON into `out` (cleared first), reusing its
/// capacity — the allocation-free variant for per-epoch hot paths.
void serialize(const Value& v, std::string& out);

/// Serialize with 2-space indentation for human-readable dashboards.
[[nodiscard]] std::string serialize_pretty(const Value& v);

/// Append the JSON text of a string (quoted + escaped) to `out` —
/// exactly what serialize() emits for a string Value. Together with
/// append_number this lets hot paths emit documents straight into a
/// buffer without building a DOM first.
void append_escaped(std::string& out, std::string_view s);

/// Append the JSON text of a number to `out` — exactly what
/// serialize() emits for a number Value (integers without a fractional
/// part, everything else %.17g).
void append_number(std::string& out, double d);

/// Parse a JSON document. Rejects trailing garbage, unterminated
/// strings, bad escapes, deep nesting (>256 levels) and non-finite
/// numbers, returning Errc::protocol_error with a byte offset.
[[nodiscard]] Result<Value> parse(std::string_view text);

/// Knobs for untrusted configuration documents (scenario/config files)
/// where silent data loss is worse than a parse failure.
struct ParseOptions {
  /// Reject objects with repeated keys instead of last-wins overwrite —
  /// a duplicated key in a hand-edited config is almost always a typo'd
  /// intent, not an intentional override.
  bool reject_duplicate_keys = false;
  /// When non-null, receives the byte offset of the failure (unchanged
  /// on success). Callers with the original text can turn it into a
  /// line:column position.
  std::size_t* error_offset = nullptr;
};

/// parse() with explicit options; the plain overload forwards to this
/// with defaults (wire traffic keeps the permissive behaviour).
[[nodiscard]] Result<Value> parse(std::string_view text, const ParseOptions& options);

}  // namespace slices::json
