#include "support/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace dsnd {
namespace {

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <typename F>
std::string rejection(F&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Parse, IntegersMustConsumeTheWholeToken) {
  EXPECT_EQ(parse_int("k", "14", 0, 100), 14);
  EXPECT_EQ(parse_int("k", "-3", -5, 5), -3);
  EXPECT_EQ(parse_int("k", "0", 0, 0), 0);
  for (const char* text : {"1e308", "12abc", "1.5", " 1", "1 ", "+1", "", "-",
                           "0x10", "nan", "inf"}) {
    EXPECT_THROW(parse_int("k", text, -100, 100), std::invalid_argument)
        << text;
  }
}

TEST(Parse, IntegersOutsideTheRangeAreRejected) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(parse_int("k", "2147483647", 0, kMax), kMax);
  EXPECT_THROW(parse_int("k", "2147483648", 0, kMax), std::invalid_argument);
  EXPECT_THROW(parse_int("k", "-1", 0, kMax), std::invalid_argument);
  // Past int64 itself: from_chars reports out of range, never wraps.
  EXPECT_THROW(parse_int("k", "99999999999999999999", 0, kMax),
               std::invalid_argument);
}

TEST(Parse, UnsignedRejectsSignsInsteadOfWrapping) {
  EXPECT_EQ(parse_uint("seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint("seed", "0"), 0u);
  for (const char* text : {"-1", "+1", "18446744073709551616", "1e3", "7x"}) {
    EXPECT_THROW(parse_uint("seed", text), std::invalid_argument) << text;
  }
}

TEST(Parse, RealsMustBeFiniteAndWhole) {
  EXPECT_DOUBLE_EQ(parse_double("c", "4"), 4.0);
  EXPECT_DOUBLE_EQ(parse_double("c", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("c", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("c", "-0.5"), -0.5);
  for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity", "1e999",
                           "4x", "", "4 ", "0x1p3"}) {
    EXPECT_THROW(parse_double("c", text), std::invalid_argument) << text;
  }
}

TEST(Parse, ErrorsNameTheKeyAndValueButNoSourcePath) {
  const std::string message =
      rejection([] { parse_int("lambda", "7q", 1, 9); });
  EXPECT_NE(message.find("lambda"), std::string::npos) << message;
  EXPECT_NE(message.find("'7q'"), std::string::npos) << message;
  EXPECT_NE(message.find("[1, 9]"), std::string::npos) << message;
  EXPECT_EQ(message.find(".cpp"), std::string::npos) << message;
  EXPECT_EQ(message.find('/'), std::string::npos) << message;

  const std::string real = rejection([] { parse_double("c", "nan"); });
  EXPECT_NE(real.find("invalid c 'nan'"), std::string::npos) << real;
  EXPECT_EQ(rejection([] { throw_bad_value("radius", "9", "at most n"); }),
            "invalid radius '9': expected at most n");
}

}  // namespace
}  // namespace dsnd
