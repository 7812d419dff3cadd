// Minimal JSON support shared across the observability stack.
//
// Two halves:
//
//  * json_escape / json_escape_to -- the one string-escaping routine used by
//    every JSON emitter in the repo (trace export, metrics export, the
//    convergence writer, rcf-report).  Escapes quotes, backslashes, and
//    control characters so arbitrary span/metric names always produce valid
//    JSON.
//  * JsonValue / parse_json -- a small recursive-descent parser (objects,
//    arrays, strings, numbers, literals) for the offline analyzers that
//    ingest the emitted files (tools/rcf_report).  No external dependency;
//    numbers are doubles, object member order is preserved.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rcf {

/// Appends `text` to `out` with JSON string escaping applied (quotes,
/// backslashes, \n, \t, and all other control characters as \uXXXX).
void json_escape_to(std::string_view text, std::string& out);

/// Returns the escaped copy.
[[nodiscard]] std::string json_escape(std::string_view text);

/// One parsed JSON value.  Exactly one of the payload members is meaningful,
/// selected by `type`; the accessors below are the convenient way in.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Object members in document order (duplicate keys are kept as-is).
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type == Type::kObject; }

  /// First member with `key`, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// The member's number if present and numeric, else `fallback`.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;

  /// The member's string if present and a string, else `fallback`.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
};

/// Parses one JSON document (trailing whitespace allowed).  Returns nullopt
/// on any syntax error.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace rcf
