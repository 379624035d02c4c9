#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace sb::workload {
namespace {

TEST(ZipfGenerator, ProbabilitiesSumToOneAndDecrease) {
  ZipfGenerator z(8, 0.99, 42);
  double sum = 0;
  for (int r = 0; r < z.size(); ++r) {
    sum += z.probability(r);
    if (r > 0) {
      EXPECT_GE(z.probability(r - 1), z.probability(r));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfGenerator, ThetaZeroIsUniform) {
  ZipfGenerator z(5, 0.0, 42);
  for (int r = 0; r < 5; ++r) EXPECT_NEAR(z.probability(r), 0.2, 1e-12);
}

TEST(ZipfGenerator, DeterministicForSeed) {
  ZipfGenerator a(16, 1.2, 7), b(16, 1.2, 7), c(16, 1.2, 8);
  bool any_diff = false;
  for (int i = 0; i < 256; ++i) {
    const int va = a.next();
    EXPECT_EQ(va, b.next());
    any_diff = any_diff || va != c.next();
  }
  EXPECT_TRUE(any_diff);
}

// Chi-squared goodness-of-fit of the sampler against its own analytic
// probability() table. With df = 7 the 99.9th percentile of chi^2 is
// ~24.3; a healthy sampler at n = 40000 sits far below it, a biased one
// (e.g. an off-by-one in the CDF walk) lands in the hundreds.
TEST(ZipfGenerator, ChiSquaredMatchesAnalyticDistribution) {
  constexpr int kClasses = 8;
  constexpr int kDraws = 40'000;
  ZipfGenerator z(kClasses, 0.99, 20260808);
  std::vector<int> counts(kClasses, 0);
  for (int i = 0; i < kDraws; ++i) {
    const int r = z.next();
    ASSERT_GE(r, 0);
    ASSERT_LT(r, kClasses);
    ++counts[r];
  }
  double chi2 = 0;
  for (int r = 0; r < kClasses; ++r) {
    const double expected = kDraws * z.probability(r);
    ASSERT_GT(expected, 5.0);  // chi^2 validity precondition
    chi2 += (counts[r] - expected) * (counts[r] - expected) / expected;
  }
  EXPECT_LT(chi2, 24.32);  // chi^2_{0.999, df=7}
}

TEST(ZipfGenerator, RejectsBadParameters) {
  EXPECT_THROW(ZipfGenerator(0, 0.99, 1), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(4, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(4, 16.5, 1), std::invalid_argument);
}

ArrivalProcess::Config cfg_of(double rate, double burst = 4.0,
                              std::uint64_t seed = 1234) {
  ArrivalProcess::Config c;
  c.rate_hz = rate;
  c.burst_factor = burst;
  c.seed = seed;
  return c;
}

TEST(ArrivalProcess, StrictlyIncreasingTimesAndSequentialIds) {
  ArrivalProcess p(cfg_of(500.0));
  TimeNs prev = -1;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const JobArrival a = p.next();
    EXPECT_EQ(a.id, i);
    EXPECT_GT(a.at, prev);
    EXPECT_GE(a.job_class, 0);
    EXPECT_LT(a.job_class, 8);
    prev = a.at;
  }
}

TEST(ArrivalProcess, DeterministicForSeed) {
  ArrivalProcess a(cfg_of(300.0)), b(cfg_of(300.0));
  for (int i = 0; i < 1024; ++i) {
    const JobArrival ja = a.next(), jb = b.next();
    EXPECT_EQ(ja.at, jb.at);
    EXPECT_EQ(ja.job_class, jb.job_class);
  }
}

TEST(ArrivalProcess, LongRunRateMatchesConfig) {
  // Count arrivals inside a 40 s window; the MMPP is constructed so its
  // long-run mean equals rate_hz, so 40 s at 250 Hz is 10000 +- a few %.
  ArrivalProcess p(cfg_of(250.0));
  const TimeNs window = seconds(40);
  std::uint64_t n = 0;
  while (p.next().at < window) ++n;
  EXPECT_NEAR(static_cast<double>(n), 250.0 * 40, 250.0 * 40 * 0.05);
}

TEST(ArrivalProcess, BurstFactorConcentratesArrivals) {
  // Same seed, same mean rate: the bursty process must put more arrivals
  // into its densest 20 ms window than the flat (burst_factor = 1) one.
  auto max_window = [](double burst) {
    ArrivalProcess p(cfg_of(400.0, burst, 99));
    std::vector<TimeNs> at;
    for (;;) {
      const JobArrival a = p.next();
      if (a.at >= seconds(4)) break;
      at.push_back(a.at);
    }
    std::size_t lo = 0, best = 0;
    for (std::size_t hi = 0; hi < at.size(); ++hi) {
      while (at[hi] - at[lo] > milliseconds(20)) ++lo;
      best = std::max(best, hi - lo + 1);
    }
    return best;
  };
  EXPECT_GT(max_window(8.0), max_window(1.0));
}

TEST(ArrivalProcess, BurstingStateAlternates) {
  ArrivalProcess p(cfg_of(2000.0));
  bool saw_burst = false, saw_calm = false;
  for (int i = 0; i < 20'000 && !(saw_burst && saw_calm); ++i) {
    p.next();
    (p.bursting() ? saw_burst : saw_calm) = true;
  }
  EXPECT_TRUE(saw_burst);
  EXPECT_TRUE(saw_calm);
}

TEST(ArrivalProcess, ConfigValidateRejectsBadFields) {
  EXPECT_THROW(ArrivalProcess{cfg_of(0.0)}, std::invalid_argument);
  EXPECT_THROW(ArrivalProcess{cfg_of(2e7)}, std::invalid_argument);
  EXPECT_THROW(ArrivalProcess{cfg_of(100.0, 0.5)}, std::invalid_argument);
  auto c = cfg_of(100.0);
  c.num_classes = 0;
  EXPECT_THROW(ArrivalProcess{c}, std::invalid_argument);
  c = cfg_of(100.0);
  c.zipf_theta = 17.0;
  EXPECT_THROW(ArrivalProcess{c}, std::invalid_argument);
  c = cfg_of(100.0);
  c.burst_mean = 0;
  EXPECT_THROW(ArrivalProcess{c}, std::invalid_argument);
}

}  // namespace
}  // namespace sb::workload
