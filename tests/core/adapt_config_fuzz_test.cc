// Edge cases of the --adapt grammar. The 10k-mutation fuzz of
// AdaptationConfig::parse is a row of tests/common/spec_fuzz_test.cc; these
// pin what the two-entry grammar accepts and rejects.
#include "core/adapt.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "spec_fuzz.h"

namespace sb::core {
namespace {

TEST(AdaptationConfigFuzz, ValidCorpusStillParses) {
  for (const std::string& input : fuzz::spec_corpus("AdaptationConfigFuzz")) {
    EXPECT_NO_THROW((void)AdaptationConfig::parse(input)) << input;
  }
}

TEST(AdaptationConfigFuzz, GrammarEdgeCases) {
  // Accepted: empty entries between commas are skipped, and an entry may
  // repeat.
  EXPECT_EQ(AdaptationConfig::parse(",,bias,,").canonical(), "bias");
  EXPECT_EQ(AdaptationConfig::parse("rls,bias,rls").canonical(), "bias,rls");
  // Rejected: bad key, the removed drift entry, any field, embedded NUL,
  // whitespace and case variants.
  for (const std::string& input :
       {std::string("bais"), std::string("drift"), std::string("bias:0.5"),
        std::string("rls:0.9:1:1"), std::string("bias\0x", 6),
        std::string("bias\0", 5), std::string("bias "), std::string("\trls"),
        std::string("RLS"), std::string("bias:nan"), std::string("rls:inf")}) {
    EXPECT_THROW((void)AdaptationConfig::parse(input), std::invalid_argument)
        << input;
  }
}

}  // namespace
}  // namespace sb::core
