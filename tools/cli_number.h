// Strict number parsing for the command-line tools (aalo_sim,
// aalo_coordinator, aalo_daemon): a flag's value is the whole of its text
// as a number of the flag's type, or the tool stops with a usage error
// (exit 2) that names the flag. atoi-style parsing would read "1x" as 1
// and wrap port 70000 to 4464.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <system_error>

namespace aalo::tools {

/// The smallest positive double: a lower bound that rejects 0.
inline constexpr double kPositive = std::numeric_limits<double>::min();

/// The whole of `text` as a T. Empty text, trailing bytes or a value T
/// cannot hold print "invalid value 'TEXT' for FLAG" and call `usage`,
/// which must exit 2 and not return.
template <typename T, typename Usage>
T parseWhole(const char* flag, const char* text, Usage usage) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text, flag);
    usage();
  }
  return value;
}

/// parseWhole, and the value must also be finite and in [min, max].
template <typename T, typename Usage>
T parseNumber(const char* flag, const char* text, T min, T max, Usage usage) {
  const T value = parseWhole<T>(flag, text, usage);
  if (!std::isfinite(static_cast<double>(value)) || value < min || value > max) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text, flag);
    usage();
  }
  return value;
}

/// parseNumber bounded above only by T itself.
template <typename T, typename Usage>
T parseNumber(const char* flag, const char* text, T min, Usage usage) {
  return parseNumber(flag, text, min, std::numeric_limits<T>::max(), usage);
}

}  // namespace aalo::tools
