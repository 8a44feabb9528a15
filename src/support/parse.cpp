#include "support/parse.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>

namespace dsnd {

namespace {

/// True when from_chars parsed `text` in full without error.
template <typename T, typename... Format>
bool parse_whole(std::string_view text, T& value, Format... format) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, format...);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

void throw_bad_value(std::string_view key, std::string_view text,
                     std::string_view expected) {
  throw std::invalid_argument("invalid " + std::string(key) + " '" +
                              std::string(text) + "': expected " +
                              std::string(expected));
}

std::int64_t parse_int(std::string_view key, std::string_view text,
                       std::int64_t lo, std::int64_t hi) {
  std::int64_t value = 0;
  if (!parse_whole(text, value) || value < lo || value > hi) {
    throw_bad_value(key, text,
                    "an integer in [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]");
  }
  return value;
}

std::uint64_t parse_uint(std::string_view key, std::string_view text) {
  std::uint64_t value = 0;
  if (!parse_whole(text, value)) {
    throw_bad_value(key, text, "an integer in [0, 2^64 - 1]");
  }
  return value;
}

double parse_double(std::string_view key, std::string_view text) {
  double value = 0.0;
  if (!parse_whole(text, value, std::chars_format::general) ||
      !std::isfinite(value)) {
    throw_bad_value(key, text, "a finite real number");
  }
  return value;
}

}  // namespace dsnd
