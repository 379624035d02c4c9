#include "common/fixed_point.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fixed_math.h"

namespace sb {
namespace {

TEST(FixedPoint, ConstructionRoundTrips) {
  EXPECT_EQ(Fixed::from_int(0).to_int(), 0);
  EXPECT_EQ(Fixed::from_int(5).to_int(), 5);
  EXPECT_EQ(Fixed::from_int(-7).to_int(), -7);
  EXPECT_DOUBLE_EQ(Fixed::from_int(3).to_double(), 3.0);
  EXPECT_NEAR(Fixed::from_double(1.5).to_double(), 1.5, 1e-4);
  EXPECT_NEAR(Fixed::from_double(-2.25).to_double(), -2.25, 1e-4);
}

TEST(FixedPoint, RawAccess) {
  EXPECT_EQ(Fixed::from_int(1).raw(), Fixed::kOne);
  EXPECT_EQ(Fixed::from_raw(Fixed::kOne / 2).to_double(), 0.5);
}

TEST(FixedPoint, Arithmetic) {
  const Fixed a = Fixed::from_double(2.5);
  const Fixed b = Fixed::from_double(1.25);
  EXPECT_NEAR((a + b).to_double(), 3.75, 1e-4);
  EXPECT_NEAR((a - b).to_double(), 1.25, 1e-4);
  EXPECT_NEAR((a * b).to_double(), 3.125, 1e-3);
  EXPECT_NEAR((a / b).to_double(), 2.0, 1e-3);
  EXPECT_NEAR((-a).to_double(), -2.5, 1e-4);
}

TEST(FixedPoint, Comparisons) {
  EXPECT_LT(Fixed::from_double(1.0), Fixed::from_double(1.5));
  EXPECT_GT(Fixed::from_double(-1.0), Fixed::from_double(-1.5));
  EXPECT_EQ(Fixed::from_int(2), Fixed::from_int(2));
}

TEST(FixedPoint, AbsoluteValue) {
  EXPECT_EQ(fixed_abs(Fixed::from_double(-3.5)).to_double(), 3.5);
  EXPECT_EQ(fixed_abs(Fixed::from_double(3.5)).to_double(), 3.5);
  EXPECT_EQ(fixed_abs(kFixedZero).raw(), 0);
}

TEST(FixedPoint, SqrtBasics) {
  EXPECT_EQ(fixed_sqrt(kFixedZero).raw(), 0);
  EXPECT_EQ(fixed_sqrt(Fixed::from_int(-4)).raw(), 0);
  EXPECT_NEAR(fixed_sqrt(Fixed::from_int(4)).to_double(), 2.0, 1e-3);
  EXPECT_NEAR(fixed_sqrt(Fixed::from_int(2)).to_double(), std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(fixed_sqrt(Fixed::from_double(0.25)).to_double(), 0.5, 1e-3);
}

class FixedSqrtSweep : public ::testing::TestWithParam<double> {};

TEST_P(FixedSqrtSweep, MatchesDoubleSqrt) {
  const double x = GetParam();
  EXPECT_NEAR(fixed_sqrt(Fixed::from_double(x)).to_double(), std::sqrt(x),
              std::max(1e-3, 2e-4 * std::sqrt(x)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FixedSqrtSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0, 9.0, 100.0,
                                           1000.0, 20000.0));

TEST(FixedMath, ExpNegBasics) {
  EXPECT_EQ(fixed_exp_neg(kFixedZero).raw(), Fixed::kOne);
  EXPECT_EQ(fixed_exp_neg(Fixed::from_int(2)).raw(), Fixed::kOne)
      << "positive input clamps to exp(0)";
  // Deep negative underflows to exactly zero.
  EXPECT_EQ(fixed_exp_neg(Fixed::from_int(-20)).raw(), 0);
}

TEST(FixedMath, ExpNegIsZeroFromMinus15_9ToMinus12) {
  // The annealer rejects a move whose diff/accept is below -12 without
  // calling fixed_exp_neg; that is exact only if every Q16.16 input the
  // full path can form there, round(max(-15.9, ratio) · 2^16), gives 0.
  for (std::int32_t r = -1042022; r <= -786432; ++r) {
    ASSERT_EQ(fixed_exp_neg(Fixed::from_raw(r)).raw(), 0) << "raw " << r;
  }
  EXPECT_EQ(Fixed::saturating_from_double(-15.9).raw(), -1042022);
  EXPECT_EQ(Fixed::saturating_from_double(-12.0).raw(), -786432);
}

class FixedExpSweep : public ::testing::TestWithParam<double> {};

TEST_P(FixedExpSweep, MatchesLibm) {
  const double x = GetParam();
  const double got = fixed_exp_neg(Fixed::from_double(x)).to_double();
  // The LUT-based range reduction trades precision for speed (paper §4.3);
  // 1% relative or 2^-14 absolute is ample for the SA acceptance test.
  EXPECT_NEAR(got, std::exp(x), std::max(0.01 * std::exp(x), 1.0 / 16384.0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FixedExpSweep,
                         ::testing::Values(-0.01, -0.1, -0.5, -1.0, -2.0, -3.0,
                                           -5.0, -8.0, -10.5));

TEST(FixedMath, ExpMonotoneNonIncreasing) {
  // Monotone up to the 1-2 ulp wobble inherent to the Q16.16 LUT products.
  constexpr double kTwoUlp = 2.0 / 65536.0;
  double prev = 2.0;
  for (double x = 0.0; x >= -12.0; x -= 0.125) {
    const double v = fixed_exp_neg(Fixed::from_double(x)).to_double();
    EXPECT_LE(v, prev + kTwoUlp) << "at x=" << x;
    prev = v;
  }
}

// --- Saturating variants: hardened entry points for counter-derived data ---

TEST(FixedSaturating, FromDoubleClampsOutOfRange) {
  // A wrapped 32-bit counter turns an IPC ratio into ~4e9; lround on the
  // scaled value is UB for plain from_double. The saturating variant clamps.
  EXPECT_EQ(Fixed::saturating_from_double(4e9), Fixed::max());
  EXPECT_EQ(Fixed::saturating_from_double(1e300), Fixed::max());
  EXPECT_EQ(Fixed::saturating_from_double(-4e9), Fixed::min());
  EXPECT_EQ(Fixed::saturating_from_double(
                std::numeric_limits<double>::infinity()),
            Fixed::max());
  EXPECT_EQ(Fixed::saturating_from_double(
                -std::numeric_limits<double>::infinity()),
            Fixed::min());
  EXPECT_EQ(Fixed::saturating_from_double(std::nan("")), Fixed{});
}

TEST(FixedSaturating, FromDoubleBitIdenticalInRange) {
  for (double v : {0.0, 1.0, -1.0, 0.5, -15.9, 3.14159, 32000.0, -32000.0,
                   1e-5, -1e-5}) {
    EXPECT_EQ(Fixed::saturating_from_double(v).raw(),
              Fixed::from_double(v).raw())
        << "v=" << v;
  }
}

TEST(FixedSaturating, AddClampsAndMatchesInRange) {
  EXPECT_EQ(saturating_add(Fixed::max(), Fixed::from_int(1)), Fixed::max());
  EXPECT_EQ(saturating_add(Fixed::min(), Fixed::from_int(-1)), Fixed::min());
  const Fixed a = Fixed::from_double(1234.5);
  const Fixed b = Fixed::from_double(-0.25);
  EXPECT_EQ(saturating_add(a, b).raw(), (a + b).raw());
}

TEST(FixedSaturating, MulClampsAndMatchesInRange) {
  const Fixed big = Fixed::from_int(30000);
  EXPECT_EQ(saturating_mul(big, big), Fixed::max());
  EXPECT_EQ(saturating_mul(big, -big), Fixed::min());
  const Fixed a = Fixed::from_double(2.5);
  const Fixed b = Fixed::from_double(1.25);
  EXPECT_EQ(saturating_mul(a, b).raw(), (a * b).raw());
  EXPECT_EQ(saturating_mul(a, -b).raw(), (a * -b).raw());
}

}  // namespace
}  // namespace sb
