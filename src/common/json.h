#ifndef RDFSPARK_COMMON_JSON_H_
#define RDFSPARK_COMMON_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rdfspark {

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes added): backslash, double quote and control characters.
std::string JsonEscape(std::string_view s);

/// Minimal strict JSON well-formedness check (RFC 8259 grammar: objects,
/// arrays, strings, numbers, true/false/null; rejects trailing garbage).
/// The observability artifacts (Chrome traces, BENCH_*.json, telemetry
/// exports, query_profile output) are validated with this both in tests
/// and — via python3 — in CI; keeping a native validator lets the tests
/// parse exports back without a JSON library dependency. On failure
/// `error` (if non-null) receives a short message with the byte offset.
bool ValidateJson(std::string_view text, std::string* error = nullptr);

/// One node of a parsed JSON document. Numbers are held as double (enough
/// for every artifact this repo writes: counters and millisecond floats);
/// object members keep source order and may repeat (RFC 8259 does not
/// forbid duplicate keys — Find returns the first).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;                                         // kString
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  /// First member named `key`, or null (null for non-objects too).
  const JsonValue* Find(std::string_view key) const;

  /// Convenience lookups over object members with typed fallbacks.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string_view fallback) const;
};

/// Strict RFC 8259 parse of `text` into a JsonValue tree — the same
/// grammar ValidateJson checks (one shared implementation), so anything
/// the validator accepts parses and vice versa. String escapes are decoded
/// (\uXXXX to UTF-8, surrogate pairs combined; lone surrogates become
/// U+FFFD). Tests read telemetry artifacts back through this.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace rdfspark

#endif  // RDFSPARK_COMMON_JSON_H_
