#ifndef MSOPDS_UTIL_STRING_UTIL_H_
#define MSOPDS_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace msopds {

/// Splits `text` on `delimiter`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Parses a double; returns false on malformed input (no CHECK).
bool ParseDouble(std::string_view text, double* value);

/// Parses a decimal int64 (a sign is allowed); returns false on
/// malformed or out-of-range input.
bool ParseInt64(std::string_view text, int64_t* value);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace msopds

#endif  // MSOPDS_UTIL_STRING_UTIL_H_
