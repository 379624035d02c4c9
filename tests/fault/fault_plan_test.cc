#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sb::fault {
namespace {

TEST(FaultPlan, DefaultIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.specs().empty());
  EXPECT_EQ(plan.spec_of(FaultClass::kCounterWrap), nullptr);
}

TEST(FaultPlan, ClassNamesRoundTrip) {
  for (int i = 0; i < kNumFaultClasses; ++i) {
    const auto cls = static_cast<FaultClass>(i);
    FaultClass back{};
    ASSERT_TRUE(fault_class_from_name(fault_class_name(cls), &back))
        << fault_class_name(cls);
    EXPECT_EQ(back, cls);
  }
  FaultClass out{};
  EXPECT_FALSE(fault_class_from_name("bogus", &out));
}

TEST(FaultPlan, ParseGrammar) {
  const auto plan = FaultPlan::parse("wrap:0.05,noise:0.02:3.0,blackout:0.01:1:4");
  EXPECT_FALSE(plan.empty());
  ASSERT_NE(plan.spec_of(FaultClass::kCounterWrap), nullptr);
  EXPECT_DOUBLE_EQ(plan.spec_of(FaultClass::kCounterWrap)->rate, 0.05);
  ASSERT_NE(plan.spec_of(FaultClass::kPowerNoise), nullptr);
  EXPECT_DOUBLE_EQ(plan.spec_of(FaultClass::kPowerNoise)->magnitude, 3.0);
  ASSERT_NE(plan.spec_of(FaultClass::kCoreBlackout), nullptr);
  EXPECT_EQ(plan.spec_of(FaultClass::kCoreBlackout)->duration_epochs, 4);
  EXPECT_EQ(plan.spec_of(FaultClass::kSampleDrop), nullptr);
}

TEST(FaultPlan, ParseEmptyAndZeroRate) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  // Zero-rate entries are recorded but the plan still injects nothing.
  const auto plan = FaultPlan::parse("wrap:0");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.spec_of(FaultClass::kCounterWrap), nullptr);
}

TEST(FaultPlan, ParseRejectsMalformed) {
  EXPECT_THROW(FaultPlan::parse("nope:0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("wrap"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("wrap:1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("wrap:-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("wrap:0.1:nan"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("wrap:0.1:1:0"), std::invalid_argument);
}

TEST(FaultPlan, ToStringRoundTrips) {
  // canonical() once streamed 6 significant digits, losing 0.1234567.
  const auto plan =
      FaultPlan::parse("sat:0.1:2:1,delay:0.25,wrap:0.1234567:2.718281828:3");
  const auto again = FaultPlan::parse(plan.canonical());
  ASSERT_EQ(again.specs().size(), plan.specs().size());
  for (const auto& s : plan.specs()) {
    const auto* other = again.spec_of(s.cls);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->rate, s.rate);
    EXPECT_EQ(other->magnitude, s.magnitude);
    EXPECT_EQ(other->duration_epochs, s.duration_epochs);
  }
  EXPECT_EQ(again.spec_of(FaultClass::kCounterWrap)->rate, 0.1234567);
}

TEST(FaultPlan, UniformCoversEveryClass) {
  const auto plan = FaultPlan::uniform(0.04);
  EXPECT_FALSE(plan.empty());
  for (int i = 0; i < kNumFaultClasses; ++i) {
    const auto cls = static_cast<FaultClass>(i);
    ASSERT_NE(plan.spec_of(cls), nullptr) << fault_class_name(cls);
  }
  EXPECT_DOUBLE_EQ(plan.spec_of(FaultClass::kCounterWrap)->rate, 0.04);
  EXPECT_DOUBLE_EQ(plan.spec_of(FaultClass::kCoreBlackout)->rate, 0.01);
  EXPECT_EQ(plan.spec_of(FaultClass::kCoreBlackout)->duration_epochs, 3);
  EXPECT_TRUE(FaultPlan::uniform(0.0).empty());
}

}  // namespace
}  // namespace sb::fault
