#include "perf/counters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"

namespace sb::perf {
namespace {

HpcCounters sample() {
  HpcCounters c;
  c.cy_busy = 600;
  c.cy_idle = 400;
  c.cy_sleep = 1000;
  c.inst_total = 2000;
  c.inst_mem = 500;
  c.inst_branch = 300;
  c.branch_mispred = 15;
  c.l1i_access = 2000;
  c.l1i_miss = 20;
  c.l1d_access = 500;
  c.l1d_miss = 25;
  c.itlb_access = 2000;
  c.itlb_miss = 2;
  c.dtlb_access = 500;
  c.dtlb_miss = 5;
  return c;
}

TEST(HpcCounters, DerivedRatios) {
  const HpcCounters c = sample();
  EXPECT_DOUBLE_EQ(c.imsh(), 0.25);
  EXPECT_DOUBLE_EQ(c.ibsh(), 0.15);
  EXPECT_DOUBLE_EQ(c.mr_branch(), 0.05);
  EXPECT_DOUBLE_EQ(c.mr_l1i(), 0.01);
  EXPECT_DOUBLE_EQ(c.mr_l1d(), 0.05);
  EXPECT_DOUBLE_EQ(c.mr_itlb(), 0.001);
  EXPECT_DOUBLE_EQ(c.mr_dtlb(), 0.01);
}

TEST(HpcCounters, IpcUsesActiveCyclesOnly) {
  const HpcCounters c = sample();
  EXPECT_EQ(c.active_cycles(), 1000u);  // sleep cycles excluded (paper §4.2.1)
  EXPECT_DOUBLE_EQ(c.ipc(), 2.0);
}

TEST(HpcCounters, EmptyRatiosAreZero) {
  const HpcCounters c;
  EXPECT_TRUE(c.empty());
  EXPECT_DOUBLE_EQ(c.imsh(), 0.0);
  EXPECT_DOUBLE_EQ(c.mr_branch(), 0.0);
  EXPECT_DOUBLE_EQ(c.ipc(), 0.0);
}

TEST(HpcCounters, Accumulation) {
  HpcCounters a = sample();
  a += sample();
  EXPECT_EQ(a.inst_total, 4000u);
  EXPECT_EQ(a.cy_busy, 1200u);
  EXPECT_EQ(a.branch_mispred, 30u);
  // Ratios invariant under uniform scaling.
  EXPECT_DOUBLE_EQ(a.imsh(), 0.25);
  const HpcCounters b = sample() + sample();
  EXPECT_EQ(b.l1d_miss, 50u);
}

TEST(HpcCounters, Reset) {
  HpcCounters c = sample();
  c.reset();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.dtlb_miss, 0u);
}

// The libm expression round_count() replaces.
std::uint64_t reference_round(double v) {
  return static_cast<std::uint64_t>(std::llround(std::max(0.0, v)));
}

TEST(RoundCount, MatchesLlroundOnEdgeCases) {
  const double two52 = 0x1p52;
  const double cases[] = {
      0.0, -0.0, 0.49999999999999994, 0.5, 0.5000000000000001, 1.0, 1.5,
      2.5, 3.4999999999999996, 1e-300, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(), two52 - 0.5, two52 - 1.5,
      two52 - 1.0, two52, two52 + 0.5, two52 + 1.0, 0x1p53, 0x1p53 + 2.0,
      0x1p62, std::nextafter(0x1p63, 0.0), -0.5, -1.0, -two52,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::infinity()};
  for (const double v : cases) {
    EXPECT_EQ(round_count(v), reference_round(v)) << std::hexfloat << v;
  }
  EXPECT_EQ(round_count(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(round_count(-0.5), 0u);
  EXPECT_EQ(round_count(0.49999999999999994), 0u);
  EXPECT_EQ(round_count(2.5), 3u);
}

TEST(RoundCount, MatchesLlroundOnSeededRandomInputs) {
  // Values across binary exponents 0-60 (below 2^63, where std::llround is
  // defined), each with its x.5 neighbour and the double just below that.
  Rng rng(19);
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 400'000; ++i) {
    const int exponent = static_cast<int>(rng.randi(0, 61));
    const double v = std::ldexp(rng.uniform(1.0, 2.0), exponent);
    const double half = std::floor(v) + 0.5;
    const double below_half = std::nextafter(half, 0.0);
    for (const double x : {v, half, below_half, -v}) {
      ++checked;
      if (round_count(x) != reference_round(x)) {
        ++mismatches;
        ADD_FAILURE() << std::hexfloat << x;
        if (mismatches > 10) return;
      }
    }
  }
  EXPECT_EQ(checked, 1'600'000u);
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace sb::perf
