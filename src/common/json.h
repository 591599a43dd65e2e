#ifndef RDFSPARK_COMMON_JSON_H_
#define RDFSPARK_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace rdfspark {

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes added): backslash, double quote and control characters.
std::string JsonEscape(std::string_view s);

/// Minimal strict JSON well-formedness check (RFC 8259 grammar: objects,
/// arrays, strings, numbers, true/false/null; rejects trailing garbage).
/// The observability artifacts (Chrome traces, BENCH_*.json, telemetry
/// exports, query_profile output) are validated with this in the tools and
/// tests, and with python3 in CI, without a JSON library dependency. On
/// failure `error` (if non-null) receives a short message with the byte
/// offset.
bool ValidateJson(std::string_view text, std::string* error = nullptr);

}  // namespace rdfspark

#endif  // RDFSPARK_COMMON_JSON_H_
