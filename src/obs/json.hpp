// Minimal JSON document model (parse + serialize) for the tooling layer.
//
// The observability exporters only ever *emit* JSON (obs/export.hpp), and
// `validate_json` only checks well-formedness — by running this module's
// parser and discarding the result. The bench-regression gate
// (obs/sidecar.hpp, tools/cellflow_bench_diff) needs more: it reads the
// BENCH_*.json sidecars back, compares metric columns between runs, and
// synthesizes doctored sidecars for the injected-regression fixture. That
// requires a real DOM, so this module provides one — a strict RFC 8259
// recursive-descent parser (with a recursion-depth limit) over a small
// variant-based value type, plus a serializer that reuses
// format_double/json_escape so round-tripped documents keep the
// repo-wide number formatting.
//
// Deliberately small: no comments, no trailing commas, no NaN/Inf literals
// (they are not JSON), object keys kept in *insertion order* (duplicate
// keys rejected) so a parse→serialize round trip is byte-stable apart from
// whitespace.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cellflow::obs {

/// One JSON value. Objects preserve insertion order (a vector of pairs,
/// not a map) so serialization is byte-stable and diffs stay readable.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}                      // NOLINT
  JsonValue(bool b) : v_(b) {}                                    // NOLINT
  JsonValue(double d) : v_(d) {}                                  // NOLINT
  JsonValue(std::string s) : v_(std::move(s)) {}                  // NOLINT
  JsonValue(const char* s) : v_(std::string(s)) {}                // NOLINT
  JsonValue(Array a) : v_(std::move(a)) {}                        // NOLINT
  JsonValue(Object o) : v_(std::move(o)) {}                       // NOLINT

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v_);
  }

  /// Typed accessors; throw std::runtime_error on a type mismatch (the
  /// sidecar layer turns those into schema errors with context).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object member lookup by key; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] JsonValue* find(std::string_view key);

  /// Appends or replaces an object member (insertion order preserved for
  /// new keys). Throws if this value is not an object.
  void set(std::string_view key, JsonValue value);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Strict RFC 8259 parse of a complete document (trailing garbage
/// rejected, duplicate object keys rejected, nesting capped at depth 256).
/// Throws std::runtime_error with a byte offset on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Serializes with the exporters' number format (format_double) and
/// string escaping (json_escape). `indent` > 0 pretty-prints with that
/// many spaces per level; 0 emits the compact single-line form.
[[nodiscard]] std::string to_json(const JsonValue& value, int indent = 0);

}  // namespace cellflow::obs
