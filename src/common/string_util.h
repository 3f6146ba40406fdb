#ifndef LDPMDA_COMMON_STRING_UTIL_H_
#define LDPMDA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ldp {

/// Splits `s` on `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Joins the strings with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Lossless text for `v`: a hex float ("%a"), which round-trips every bit
/// pattern, so keys built from it never merge two different doubles.
std::string HexDouble(double v);

/// Strict integer / floating-point parsing (the whole string must parse).
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

}  // namespace ldp

#endif  // LDPMDA_COMMON_STRING_UTIL_H_
