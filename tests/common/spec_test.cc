// common/spec.h: the token grammar every config spec shares — the splitter,
// the strict number reader, enum fields, and the printer whose output the
// reader maps back to the same bits.
#include "common/spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sb::spec {
namespace {

constexpr std::string_view kColors[] = {"red", "green"};
constexpr Field kFields[] = {
    {"count", Kind::kInt, 1, 100},
    {"share", Kind::kReal, 0, 1, 0.5, Range::kOpenLow},
    {.name = "color", .kind = Kind::kEnum, .def = 0, .names = kColors},
};

TEST(Spec, SplitKeepsEmptyTokens) {
  EXPECT_EQ(split("a:b::", ':'),
            (std::vector<std::string_view>{"a", "b", "", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("k=v", '='), (std::vector<std::string_view>{"k", "v"}));
}

TEST(Spec, RealFieldsTakeOnlyFromCharsSyntax) {
  EXPECT_EQ(read_field("g", kFields[1], "0.25"), 0.25);
  EXPECT_EQ(read_field("g", kFields[1], "1e-7"), 1e-7);
  EXPECT_EQ(read_field("g", kFields[1], ".5"), 0.5);
  for (const char* bad : {"", " 0.25", "0.25 ", "+0.25", "0x1p-2", "nan",
                          "inf", "1e999", "0.25x"}) {
    EXPECT_THROW(read_field("g", kFields[1], bad), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(Spec, IntFieldsTakeDigitsOnly) {
  EXPECT_EQ(read_field("g", kFields[0], "7"), 7.0);
  EXPECT_EQ(read_field("g", kFields[0], "007"), 7.0);
  for (const char* bad : {"", "+7", "-7", " 7", "7.0", "1e1", "0x7",
                          "99999999999999999999"}) {
    EXPECT_THROW(read_field("g", kFields[0], bad), std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_EQ(read_uint("g", "seed", "18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
}

TEST(Spec, RangesHonourOpenEnds) {
  EXPECT_THROW(read_field("g", kFields[0], "0"), std::invalid_argument);
  EXPECT_THROW(read_field("g", kFields[0], "101"), std::invalid_argument);
  EXPECT_EQ(read_field("g", kFields[0], "100"), 100.0);
  EXPECT_THROW(read_field("g", kFields[1], "0"), std::invalid_argument);
  EXPECT_EQ(read_field("g", kFields[1], "1"), 1.0);
  constexpr Field kHalfOpen = {"burn", Kind::kReal, 0, 1, 0, Range::kOpenHigh};
  EXPECT_EQ(read_field("g", kHalfOpen, "0"), 0.0);
  EXPECT_THROW(read_field("g", kHalfOpen, "1"), std::invalid_argument);
}

TEST(Spec, EnumFieldsReadNameIndex) {
  EXPECT_EQ(read_field("g", kFields[2], "green"), 1.0);
  EXPECT_THROW(read_field("g", kFields[2], "blue"), std::invalid_argument);
  EXPECT_THROW(read_field("g", kFields[2], "Red"), std::invalid_argument);
}

TEST(Spec, ErrorsNameGrammarFieldAndToken) {
  try {
    read_field("--demo", kFields[1], "1.5");
    FAIL() << "accepted an out-of-range share";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--demo: bad share '1.5' (want a finite number in (0, 1])");
  }
}

TEST(Spec, ReadFieldsKeepsOmittedValues) {
  const std::vector<std::string_view> two = {"3", "0.75"};
  double v[] = {0, 0.5, 1};
  read_fields("g", kFields, two, v);
  EXPECT_EQ(v[0], 3.0);
  EXPECT_EQ(v[1], 0.75);
  EXPECT_EQ(v[2], 1.0);  // absent: the caller's value stays
  const std::vector<std::string_view> none = {};
  EXPECT_THROW(read_fields("g", kFields, none, v), std::invalid_argument);
  const std::vector<std::string_view> four = {"3", "0.75", "red", "x"};
  EXPECT_THROW(read_fields("g", kFields, four, v), std::invalid_argument);
}

TEST(Spec, AppendFieldsDropsTrailingDefaultsBitForBit) {
  std::string out;
  append_fields(out, kFields, {3, 0.5, 0});
  EXPECT_EQ(out, "3");
  out.clear();
  append_fields(out, kFields, {3, 0.5, 1});
  EXPECT_EQ(out, "3:0.5:green");
  out.clear();
  append_fields(out, kFields, {100000, 0.1234567, 0});
  EXPECT_EQ(out, "100000:0.1234567");  // integers never print as 1e+05
}

TEST(Spec, AppendDoubleIsShortestAndGuardsNonFinite) {
  std::string out;
  for (double v : {0.1, 1e-7, 450.1234567, -0.0, 1e300}) {
    out.clear();
    append_double(out, v);
    double back = 0;
    std::from_chars(out.data(), out.data() + out.size(), back);
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << out;
    EXPECT_EQ(back, v) << out;
  }
  out.clear();
  append_double(out, 0.1);
  EXPECT_EQ(out, "0.1");
  out.clear();
  append_double(out, std::numeric_limits<double>::quiet_NaN());
  append_double(out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "nan-inf");
}

}  // namespace
}  // namespace sb::spec
