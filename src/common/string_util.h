#ifndef RDFSPARK_COMMON_STRING_UTIL_H_
#define RDFSPARK_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfspark {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// True if `s` begins with / ends with the given affix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a byte count with binary units, e.g. "1.5 MiB".
std::string FormatBytes(uint64_t bytes);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

}  // namespace rdfspark

#endif  // RDFSPARK_COMMON_STRING_UTIL_H_
