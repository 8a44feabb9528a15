// Strict number parsing for text inputs (the dsnd_serve command line).
//
// Every parser takes the whole token or nothing: std::from_chars must
// consume every character, so "1e308" is not an integer 1, "-1" is not
// an unsigned 2^64-1, and "nan" or "inf" is never a real number. A
// rejected token throws std::invalid_argument whose message names the
// key and the offending text — never a source location — so a daemon
// can echo it to its client verbatim.
#pragma once

#include <cstdint>
#include <string_view>

namespace dsnd {

/// Throws std::invalid_argument("invalid <key> '<text>': expected
/// <expected>"). The one error format of the parsers below, for callers'
/// own range checks.
[[noreturn]] void throw_bad_value(std::string_view key, std::string_view text,
                                  std::string_view expected);

/// A base-10 integer in [lo, hi], optionally signed.
std::int64_t parse_int(std::string_view key, std::string_view text,
                       std::int64_t lo, std::int64_t hi);

/// An unsigned base-10 integer (no sign accepted), e.g. a seed.
std::uint64_t parse_uint(std::string_view key, std::string_view text);

/// A finite real number (decimal or scientific notation).
double parse_double(std::string_view key, std::string_view text);

}  // namespace dsnd
