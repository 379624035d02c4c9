// Edge cases of the --faults grammar, including the over-range numerics
// ("wrap:1e999", duration fields past INT_MAX) on which std::stod/std::stoi
// once leaked std::out_of_range. The 10k-mutation fuzz of FaultPlan::parse
// is a row of tests/common/spec_fuzz_test.cc.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "spec_fuzz.h"

namespace sb::fault {
namespace {

TEST(FaultPlanFuzz, OverRangeNumericsAreInvalidArgumentNotOutOfRange) {
  // Regression for the fuzz finding: stod/stoi throw std::out_of_range on
  // these, which previously escaped parse()'s documented contract.
  for (const char* input :
       {"wrap:1e999", "wrap:1e-999", "sat:0.1:1e999",
        "wrap:0.1:1:99999999999999999999", "wrap:0.1:1:2147483648",
        "noise:9e307:1:1", "wrap:1e309"}) {
    EXPECT_THROW((void)FaultPlan::parse(input, 1), std::invalid_argument)
        << input;
  }
}

TEST(FaultPlanFuzz, ValidCorpusStillParses) {
  for (const std::string& input : fuzz::spec_corpus("FaultPlanFuzz")) {
    EXPECT_NO_THROW((void)FaultPlan::parse(input, 1)) << input;
  }
}

TEST(FaultPlanFuzz, GrammarEdgeCases) {
  // Accepted: empty entries between commas are skipped; subnormal values
  // are finite (std::stod rejected them with ERANGE).
  EXPECT_NO_THROW((void)FaultPlan::parse(",,wrap:0.1,,", 1));
  EXPECT_EQ(FaultPlan::parse("wrap:4e-320", 1).specs()[0].rate, 4e-320);
  // Rejected: bad class, missing rate, too many fields, embedded NUL.
  EXPECT_THROW((void)FaultPlan::parse("warp:0.1", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:0.1:1:2:3", 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse(std::string("wrap:0.1\0x", 10), 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:nan", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:inf", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:-0.1", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("sat:0.1:-1", 1), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("sat:0.1:nan", 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:0.1:1:0", 1),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("wrap:0.1:1:1025", 1),
               std::invalid_argument);
  // Rejected: number syntax beyond std::from_chars (std::stod took these).
  for (const char* input :
       {"wrap: 0.25", "wrap:+0.25", "wrap:0x1p-2", "wrap:0.1: 1",
        "wrap:0.1:+1", "wrap:0.1:1:+4", "wrap:0.1:1: 4"}) {
    EXPECT_THROW((void)FaultPlan::parse(input, 1), std::invalid_argument)
        << input;
  }
}

}  // namespace
}  // namespace sb::fault
