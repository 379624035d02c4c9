// Edge cases of the --adapt grammar. The 10k-mutation fuzz of
// AdaptationConfig::parse is a row of tests/common/spec_fuzz_test.cc; these
// pin over-range numerics ("rls:1e999") to std::invalid_argument, never
// std::out_of_range.
#include "core/adapt.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "spec_fuzz.h"

namespace sb::core {
namespace {

TEST(AdaptationConfigFuzz, OverRangeNumericsAreInvalidArgumentNotOutOfRange) {
  for (const char* input :
       {"rls:1e999", "rls:1e-999", "bias:1e999", "rls:0.9:1e999",
        "drift:1e999", "drift:0.5:99999999999999999999",
        "drift:0.5:9223372036854775808", "rls:0.9:1:99999999999999999999"}) {
    EXPECT_THROW((void)AdaptationConfig::parse(input), std::invalid_argument)
        << input;
  }
}

TEST(AdaptationConfigFuzz, ValidCorpusStillParses) {
  for (const std::string& input : fuzz::spec_corpus("AdaptationConfigFuzz")) {
    EXPECT_NO_THROW((void)AdaptationConfig::parse(input)) << input;
  }
}

TEST(AdaptationConfigFuzz, GrammarEdgeCases) {
  // Accepted: empty entries between commas are skipped; subnormal values
  // are finite (std::stod rejected them with ERANGE).
  EXPECT_NO_THROW((void)AdaptationConfig::parse(",,bias,,"));
  EXPECT_EQ(AdaptationConfig::parse("bias:4e-320").bias_alpha, 4e-320);
  // Rejected: bad key, bare drift, too many fields, embedded NUL, bad
  // numerics, out-of-range knobs.
  EXPECT_THROW((void)AdaptationConfig::parse("bais"), std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("drift"), std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("bias:0.5:1:2"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse(std::string("bias\0x", 6)),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("bias:nan"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("rls:inf"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("bias:-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("rls:0.49"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("rls:1:1:3"),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptationConfig::parse("drift:0.5:0"),
               std::invalid_argument);
  // Rejected: number syntax beyond std::from_chars (std::stod took these).
  for (const char* input :
       {"bias: 0.25", "bias:+0.25", "bias:0x1p-2", "rls:0.9:1: 1",
        "rls:0.9:1:+1", "rls:0.9:1:-0", "drift:0.5:+8", "drift:0.5: 8"}) {
    EXPECT_THROW((void)AdaptationConfig::parse(input), std::invalid_argument)
        << input;
  }
}

}  // namespace
}  // namespace sb::core
