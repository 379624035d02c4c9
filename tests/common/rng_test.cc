#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace sb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::uint64_t x = 0;
  for (int i = 0; i < 10; ++i) x |= r.next_u64();
  EXPECT_NE(x, 0u);
}

TEST(Rng, RandiRangeHalfOpen) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.randi(-5, 12);
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 12);
  }
}

TEST(Rng, RandiCoversAllValues) {
  Rng r(11);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) ++seen[static_cast<std::size_t>(r.randi(0, 8))];
  for (int c : seen) EXPECT_GT(c, 700);  // ~1000 expected each
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(23);
  const int n = 50000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianScaled) {
  Rng r(29);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng child = a.split();
  // Parent and child should not track each other.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, RandiFullWordIsUniformishInHighBit) {
  Rng r(37);
  int high = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.randi() & 0x80000000u) ++high;
  }
  EXPECT_NEAR(static_cast<double>(high) / n, 0.5, 0.02);
}

TEST(FastMod, ModMatchesHardwareForRandomOperands) {
  // mod is exact for the full 64-bit numerator range.
  Rng r(101);
  for (int k = 0; k < 2000; ++k) {
    const std::uint64_t d = 1 + r.next_u64() % 100000;
    const FastMod fm(d);
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t x = r.next_u64();
      ASSERT_EQ(fm.mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
}

TEST(FastMod, ModMatchesSaOptimizerDrawSemantics) {
  // The SA loop relies on randi(x, y) == x + next_u64() % (y - x); a
  // FastMod over the span must reproduce randi draw-for-draw.
  const std::int64_t slots = 128 * 256;
  const FastMod fm(static_cast<std::uint64_t>(slots));
  Rng a(42), b(42);
  for (int i = 0; i < 10000; ++i) {
    const auto expect = a.randi(-17, slots - 17);
    const auto got =
        -17 + static_cast<std::int64_t>(fm.mod(b.next_u64()));
    ASSERT_EQ(got, expect);
  }
}

TEST(FastMod, DivExactInDocumentedRange) {
  // div is exact for every 64-bit x. Cover small divisors, powers of two,
  // and d == 1.
  Rng r(102);
  for (std::uint64_t d : {1ull, 2ull, 3ull, 7ull, 8ull, 255ull, 256ull,
                          1000ull, 65536ull, 4294967295ull}) {
    const FastMod fm(d);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t x = r.next_u64();
      ASSERT_EQ(fm.div(x), x / d) << "x=" << x << " d=" << d;
    }
    // Boundaries of the documented range.
    ASSERT_EQ(fm.div(0), 0u);
    ASSERT_EQ(fm.div(0xffffffffULL), 0xffffffffULL / d);
  }
}

TEST(FastMod, ExactAtQuotientSteps) {
  // mod and div against % and / where the quotient steps (k·d - 1, k·d),
  // up to the largest multiple of d and 2^64 - 1, for powers of two (1, 2,
  // 2^15) and other divisors (3, 6, 2^32 - 1).
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t ds[] = {1, 2, 3, 6, 1 << 15, 0xffffffff};
  for (const std::uint64_t d : ds) {
    const FastMod fm(d);
    std::vector<std::uint64_t> xs = {0, d - 1, d, kMax};
    const std::uint64_t ks[] = {2, 3, 1000, std::uint64_t{1} << 32, kMax / d};
    for (const std::uint64_t k : ks) {
      xs.push_back(k * d - 1);
      xs.push_back(k * d);
    }
    for (const std::uint64_t x : xs) {
      ASSERT_EQ(fm.mod(x), x % d) << "x=" << x << " d=" << d;
      ASSERT_EQ(fm.div(x), x / d) << "x=" << x << " d=" << d;
    }
  }
}

TEST(FastMod, DivModConsistency) {
  Rng r(103);
  for (int k = 0; k < 1000; ++k) {
    const std::uint64_t d = 1 + (r.next_u64() & 0xffff);
    const FastMod fm(d);
    const std::uint64_t x = r.next_u64() & 0xffffffffULL;
    ASSERT_EQ(fm.div(x) * d + fm.mod(x), x);
  }
}

}  // namespace
}  // namespace sb
