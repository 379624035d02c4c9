#include "fleet/fleet_config.h"

#include <gtest/gtest.h>


namespace sb::fleet {
namespace {

TEST(FleetConfig, ParseNodeCountOnlyKeepsDefaults) {
  const FleetConfig cfg = FleetConfig::parse("6");
  EXPECT_EQ(cfg.nodes, 6);
  EXPECT_EQ(cfg.policy, DispatchPolicy::kEnergyAware);
  EXPECT_DOUBLE_EQ(cfg.rate_hz, 300.0);
  // Leading zeros read like in every integer field, at any length.
  EXPECT_EQ(FleetConfig::parse("000006").nodes, 6);
}

TEST(FleetConfig, ParseFullGrammar) {
  const FleetConfig cfg = FleetConfig::parse("8:rr:450.5");
  EXPECT_EQ(cfg.nodes, 8);
  EXPECT_EQ(cfg.policy, DispatchPolicy::kRoundRobin);
  EXPECT_DOUBLE_EQ(cfg.rate_hz, 450.5);
}

TEST(FleetConfig, PolicySpellings) {
  EXPECT_EQ(dispatch_policy_from("rr"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(dispatch_policy_from("round-robin"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(dispatch_policy_from("roundrobin"), DispatchPolicy::kRoundRobin);
  EXPECT_EQ(dispatch_policy_from("least"), DispatchPolicy::kLeastLoaded);
  EXPECT_EQ(dispatch_policy_from("least-loaded"), DispatchPolicy::kLeastLoaded);
  EXPECT_EQ(dispatch_policy_from("energy"), DispatchPolicy::kEnergyAware);
  EXPECT_EQ(dispatch_policy_from("energy-aware"), DispatchPolicy::kEnergyAware);
  EXPECT_THROW(dispatch_policy_from("warmest"), std::invalid_argument);
  EXPECT_THROW(dispatch_policy_from(""), std::invalid_argument);
}

TEST(FleetConfig, ParseErrors) {
  EXPECT_THROW(FleetConfig::parse(""), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("0"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("1025"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("x"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("-4"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:warmest"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:-5"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:nan"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:1e9"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:300:extra"), std::invalid_argument);
  // Number syntax beyond std::from_chars (std::strtod took these).
  EXPECT_THROW(FleetConfig::parse("4:rr: 300"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:+300"), std::invalid_argument);
  EXPECT_THROW(FleetConfig::parse("4:rr:0x1p8"), std::invalid_argument);
}

TEST(FleetConfig, CanonicalRoundTripsThroughParse) {
  // 1e-7 once printed as "0" (which parse rejects) and 450.1234567 as
  // 450.123457: canonical() must keep every bit.
  for (const char* text : {"1", "4:rr", "16:least:120.25", "1024:energy:1",
                           "4:rr:1e-7", "8:least:450.1234567"}) {
    const FleetConfig a = FleetConfig::parse(text);
    const FleetConfig b = FleetConfig::parse(a.canonical());
    EXPECT_EQ(a.nodes, b.nodes) << text;
    EXPECT_EQ(a.policy, b.policy) << text;
    EXPECT_EQ(a.rate_hz, b.rate_hz) << text;
    EXPECT_EQ(a.canonical(), b.canonical()) << text;
  }
  EXPECT_EQ(FleetConfig::parse("4:rr:1e-7").rate_hz, 1e-7);
  EXPECT_EQ(FleetConfig::parse("8:least:450.1234567").canonical(),
            "8:least:450.1234567");
}

TEST(FleetConfig, ValidateRejectsBadApiFields) {
  const auto bad = [](auto mutate) {
    FleetConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  bad([](FleetConfig& c) { c.nodes = 0; });
  bad([](FleetConfig& c) { c.rate_hz = 0; });
  bad([](FleetConfig& c) { c.duration = 0; });
  bad([](FleetConfig& c) { c.quantum = 0; });
  bad([](FleetConfig& c) { c.quantum = c.duration + 1; });
  bad([](FleetConfig& c) { c.node_policy = "cfs"; });
  bad([](FleetConfig& c) { c.load_cap = 0.1; });
  bad([](FleetConfig& c) { c.consolidation_bias = -0.5; });
  bad([](FleetConfig& c) { c.obs.audit = true; });  // no fleet balancer
  FleetConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

}  // namespace
}  // namespace sb::fleet
