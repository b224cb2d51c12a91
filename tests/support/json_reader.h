#ifndef FTA_TESTS_SUPPORT_JSON_READER_H_
#define FTA_TESTS_SUPPORT_JSON_READER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace fta {
namespace obs {

/// Parsed JSON document node. Object member order is preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// Find + numeric coercion helpers for terse test/report code. The
  /// fallback is returned when the key is absent or the wrong type.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;
};

/// Strict recursive-descent parser for the JSON this library emits (and
/// any standard document without \u surrogate pairs beyond the BMP).
/// Rejects trailing garbage, unterminated containers, and bad escapes.
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace obs
}  // namespace fta

#endif  // FTA_TESTS_SUPPORT_JSON_READER_H_
