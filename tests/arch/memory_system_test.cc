#include "arch/memory_system.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace sb::arch {
namespace {

TEST(SharedBus, UnloadedLatencyIsBase) {
  SharedBus bus(4);
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(bus.inflation(), 1.0);
  EXPECT_DOUBLE_EQ(bus.effective_latency_ns(), bus.config().base_latency_ns);
}

TEST(SharedBus, TrafficRaisesUtilization) {
  SharedBus bus(2);
  // 1e6 misses × 64 B over 1 ms = 64 GB/s demanded >> 12.8 GB/s capacity.
  for (int i = 0; i < 50; ++i) bus.record_traffic(0, 1e6, milliseconds(1));
  EXPECT_GT(bus.utilization(), 0.9);
  EXPECT_GT(bus.inflation(), 2.0);
  EXPECT_LE(bus.inflation(), bus.config().max_inflation);
}

TEST(SharedBus, UtilizationClampedToOne) {
  SharedBus bus(1);
  for (int i = 0; i < 100; ++i) bus.record_traffic(0, 1e8, milliseconds(1));
  EXPECT_DOUBLE_EQ(bus.utilization(), 1.0);
  EXPECT_DOUBLE_EQ(bus.inflation(), bus.config().max_inflation);
}

TEST(SharedBus, TrafficIsPerCoreAndAdditive) {
  SharedBus bus(2);
  bus.record_traffic(0, 2e4, milliseconds(1));
  const double u1 = bus.utilization();
  bus.record_traffic(1, 2e4, milliseconds(1));
  EXPECT_GT(bus.utilization(), u1);
}

TEST(SharedBus, QuietCoreDecaysViaZeroTraffic) {
  SharedBus bus(1);
  for (int i = 0; i < 30; ++i) bus.record_traffic(0, 5e4, milliseconds(1));
  const double busy = bus.utilization();
  for (int i = 0; i < 30; ++i) bus.record_traffic(0, 0, milliseconds(1));
  EXPECT_LT(bus.utilization(), busy * 0.05);
}

TEST(SharedBus, ResetClears) {
  SharedBus bus(2);
  bus.record_traffic(0, 1e6, milliseconds(1));
  bus.reset();
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.0);
}

TEST(SharedBus, ZeroWindowIgnored) {
  SharedBus bus(1);
  bus.record_traffic(0, 1e6, 0);
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.0);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SharedBus, Validation) {
  EXPECT_THROW(SharedBus(0), std::invalid_argument);
  SharedBus::Config bad;
  bad.bandwidth_gbps = 0;
  EXPECT_THROW(SharedBus(2, bad), std::invalid_argument);
  SharedBus bus(2);
  EXPECT_THROW(bus.record_traffic(5, 1, 1), std::out_of_range);
  // max_inflation < 1 would report a latency below the base.
  bad = SharedBus::Config();
  bad.max_inflation = 0.5;
  EXPECT_THROW(SharedBus(2, bad), std::invalid_argument);
  bad = SharedBus::Config();
  bad.contention_exponent = 0.0;
  EXPECT_THROW(SharedBus(2, bad), std::invalid_argument);
  bad = SharedBus::Config();
  bad.line_bytes = 0.0;
  EXPECT_THROW(SharedBus(2, bad), std::invalid_argument);
  for (double SharedBus::Config::*field :
       {&SharedBus::Config::base_latency_ns, &SharedBus::Config::bandwidth_gbps,
        &SharedBus::Config::contention_exponent,
        &SharedBus::Config::max_inflation, &SharedBus::Config::line_bytes}) {
    for (const double v : {kNan, kInf}) {
      bad = SharedBus::Config();
      bad.*field = v;
      EXPECT_THROW(SharedBus(2, bad), std::invalid_argument);
    }
  }
}

TEST(SharedBus, RejectsNonFiniteOrNegativeMisses) {
  // One NaN report would make every later effective latency NaN.
  SharedBus bus(2);
  EXPECT_THROW(bus.record_traffic(0, kNan, milliseconds(1)),
               std::invalid_argument);
  EXPECT_THROW(bus.record_traffic(0, kInf, milliseconds(1)),
               std::invalid_argument);
  EXPECT_THROW(bus.record_traffic(0, -1.0, milliseconds(1)),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(bus.utilization(), 0.0);
}

TEST(SharedBus, InflationMonotoneInUtilization) {
  SharedBus bus(1);
  double prev = bus.inflation();
  for (int i = 0; i < 20; ++i) {
    bus.record_traffic(0, 3e4, milliseconds(1));
    EXPECT_GE(bus.inflation() + 1e-12, prev);
    prev = bus.inflation();
  }
}

}  // namespace
}  // namespace sb::arch
