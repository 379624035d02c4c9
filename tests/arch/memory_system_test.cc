#include "arch/memory_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

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
  EXPECT_THROW(SharedBus(-1), std::invalid_argument);
  EXPECT_THROW(SharedBus(kMaxCores + 1), std::invalid_argument);
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

struct BusOp {
  bool reset = false;
  CoreId core = 0;
  double misses = 0.0;
  TimeNs window = 0;
};

// The plain formula the saturation certificate must reproduce: the same
// smoothing per report, and on every read the sequential sum, clamp, pow
// and min.
struct ReferenceBus {
  SharedBus::Config cfg;
  std::vector<double> bw;

  void record(CoreId c, double misses, TimeNs window) {
    if (window <= 0) return;
    const double gbps = misses * cfg.line_bytes / static_cast<double>(window);
    double& slot = bw[static_cast<std::size_t>(c)];
    slot = (1.0 - 0.3) * slot + 0.3 * gbps;
  }
  void apply(const BusOp& op) {
    if (op.reset) {
      std::fill(bw.begin(), bw.end(), 0.0);
    } else {
      record(op.core, op.misses, op.window);
    }
  }
  double total() const {
    double t = 0.0;
    for (double b : bw) t += b;
    return t;
  }
  double utilization() const {
    return std::clamp(total() / cfg.bandwidth_gbps, 0.0, 1.0);
  }
  double inflation() const {
    const double f = 1.0 + (cfg.max_inflation - 1.0) *
                               std::pow(utilization(), cfg.contention_exponent);
    return std::min(f, cfg.max_inflation);
  }
  double latency() const { return cfg.base_latency_ns * inflation(); }
};

// A random report sequence that moves between light, near-`capacity` and
// heavy regimes, with zero and negative windows, resets, and misses so
// large that a slot becomes +inf.
std::vector<BusOp> random_ops(int cores, int steps, std::uint64_t seed,
                              double capacity) {
  const SharedBus::Config cfg;
  Rng rng(seed);
  std::vector<BusOp> ops;
  double per_core = 0.0;  // the current regime's mean GB/s per core
  for (int i = 0; i < steps; ++i) {
    if (i % 400 == 0) {
      // Light, near capacity, heavy enough to saturate even when each of
      // kMaxCores cores reports only a few times, near capacity again.
      const double regime[] = {0.3, 1.0, 16.0, 1.0};
      per_core = regime[(i / 400) % 4] * capacity / cores;
    }
    BusOp op;
    op.core = static_cast<CoreId>(rng.randi(0, cores));
    const double pick = rng.uniform();
    if (pick < 0.002) {
      op.reset = true;
    } else if (pick < 0.003) {
      op.misses = std::numeric_limits<double>::max() / 8;  // ×64 B → +inf
      op.window = 1000;
    } else if (pick < 0.05) {
      op.misses = rng.uniform(0.0, 1e6);
      op.window = -rng.randi(0, 2);  // 0 or -1: ignored
    } else {
      op.window = rng.randi(1000, 2'000'000);
      const double gbps = per_core * rng.uniform(0.999, 1.001);
      op.misses = gbps * static_cast<double>(op.window) / cfg.line_bytes;
    }
    ops.push_back(op);
  }
  return ops;
}

struct ReplayCount {
  int saturated = 0;
  int unsaturated = 0;
};

// Replays `ops` on a SharedBus and the reference in lockstep, comparing
// every read bit for bit after every step.
ReplayCount replay(int cores, const SharedBus::Config& cfg,
                   const std::vector<BusOp>& ops) {
  SharedBus bus(cores, cfg);
  ReferenceBus ref{cfg, std::vector<double>(static_cast<std::size_t>(cores))};
  ReplayCount count;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BusOp& op = ops[i];
    if (op.reset) {
      bus.reset();
    } else {
      bus.record_traffic(op.core, op.misses, op.window);
    }
    ref.apply(op);
    const double u = ref.utilization();
    (u == 1.0 ? count.saturated : count.unsaturated)++;
    if (bits(bus.utilization()) != bits(u) ||
        bits(bus.inflation()) != bits(ref.inflation()) ||
        bits(bus.effective_latency_ns()) != bits(ref.latency())) {
      ADD_FAILURE() << cores << " cores, bandwidth " << cfg.bandwidth_gbps
                    << ", step " << i << ": utilization " << bus.utilization()
                    << " vs " << u << ", latency "
                    << bus.effective_latency_ns() << " vs " << ref.latency();
      return count;
    }
  }
  return count;
}

// The reference total after the first `steps` operations.
double total_after(int cores, const std::vector<BusOp>& ops,
                   std::size_t steps) {
  ReferenceBus ref{SharedBus::Config(),
                   std::vector<double>(static_cast<std::size_t>(cores))};
  for (std::size_t i = 0; i < steps; ++i) ref.apply(ops[i]);
  return ref.total();
}

TEST(SharedBus, SaturationCertificateMatchesTheSequentialSum) {
  // At the default capacity the 1e-9 margin dwarfs the bound's truncation
  // loss (at most one 2^-40 GB/s unit per core); at 1e-7 GB/s it does not,
  // so a bound that over-counted by a unit per core would show.
  for (const double capacity : {SharedBus::Config().bandwidth_gbps, 1e-7}) {
  for (const int cores : {1, 4, 128, kMaxCores}) {
    SCOPED_TRACE(::testing::Message() << cores << " cores, capacity "
                                      << capacity);
    const int steps = cores == kMaxCores ? 1200 : 4000;
    const auto ops = random_ops(cores, steps, 77 + cores, capacity);
    SharedBus::Config at_capacity;
    at_capacity.bandwidth_gbps = capacity;
    const ReplayCount counts = replay(cores, at_capacity, ops);
    EXPECT_GT(counts.saturated, 0);
    EXPECT_GT(counts.unsaturated, 0);

    // Bandwidths that put a total a few ulps either side of capacity, and
    // ones that put the exact bound a few units either side of the
    // certificate's threshold, bandwidth·2^40·(1 + 1e-9).
    for (const std::size_t at : {ops.size() / 3, ops.size() - 1}) {
      const double total = total_after(cores, ops, at);
      if (!(total > 0.0) || !std::isfinite(total)) continue;
      std::vector<double> bandwidths;
      for (const double centre : {total, total / (1.0 + 1e-9)}) {
        double below = centre;
        double above = centre;
        bandwidths.push_back(centre);
        for (int k = 0; k < 3; ++k) {
          below = std::nextafter(below, 0.0);
          above = std::nextafter(above, kInf);
          bandwidths.push_back(below);
          bandwidths.push_back(above);
        }
        const double unit = cores * 0x1p-40;
        bandwidths.push_back(centre - unit);
        bandwidths.push_back(centre + unit);
      }
      for (const double bw : bandwidths) {
        if (bw <= 0.0) continue;
        SharedBus::Config cfg;
        cfg.bandwidth_gbps = bw;
        replay(cores, cfg, ops);
      }
    }
  }
  }
}

// Misses that, reported over 64 ns into an empty slot, set it to exactly
// `gbps` (the smoothing stores 0.3 · reported bandwidth).
double misses_for_slot(double gbps) {
  double reported = gbps / 0.3;
  while (0.3 * reported < gbps) reported = std::nextafter(reported, kInf);
  while (0.3 * reported > gbps) reported = std::nextafter(reported, 0.0);
  EXPECT_EQ(0.3 * reported, gbps);
  return reported;  // × 64 B / 64 ns is exact
}

TEST(SharedBus, CertificateMarginCoversTheRoundedSum) {
  // Four slots of 2^11 GB/s, then two of 2^-40: the exact sum, and the
  // exact integer bound, is 2^13 + 2^-39, one ulp above 2^13, but the
  // sequential double sum rounds each 2^-40 away and reads 2^13. At a
  // bandwidth of 2^13 + 2^-39 the formula reads the bus as unsaturated,
  // although the bound reaches bandwidth·2^40: only the 1e-9 margin keeps
  // the certificate from claiming saturation.
  SharedBus::Config cfg;
  cfg.bandwidth_gbps = std::nextafter(0x1p13, kInf);
  SharedBus bus(6, cfg);
  ReferenceBus ref{cfg, std::vector<double>(6)};
  for (CoreId c = 0; c < 6; ++c) {
    const double m = misses_for_slot(c < 4 ? 0x1p11 : 0x1p-40);
    bus.record_traffic(c, m, 64);
    ref.record(c, m, 64);
  }
  ASSERT_EQ(ref.total(), 0x1p13);
  EXPECT_LT(ref.utilization(), 1.0);
  EXPECT_EQ(bus.utilization(), ref.utilization());
  EXPECT_EQ(bus.effective_latency_ns(), ref.latency());
}

TEST(SharedBus, InfiniteSlotReadsSaturatedUntilReset) {
  SharedBus bus(4);
  bus.record_traffic(2, std::numeric_limits<double>::max() / 8, 1000);
  EXPECT_EQ(bus.utilization(), 1.0);
  EXPECT_EQ(bus.inflation(), bus.config().max_inflation);
  for (int i = 0; i < 50; ++i) bus.record_traffic(2, 0.0, milliseconds(1));
  EXPECT_EQ(bus.utilization(), 1.0) << "0.7·inf stays inf";
  bus.reset();
  EXPECT_EQ(bus.utilization(), 0.0);
  EXPECT_EQ(bus.effective_latency_ns(), bus.config().base_latency_ns);

  // Every slot +inf: each is capped at 2^52 units, so the bound stays
  // inside int64.
  SharedBus wide(kMaxCores);
  for (CoreId c = 0; c < kMaxCores; ++c) {
    wide.record_traffic(c, std::numeric_limits<double>::max() / 8, 1000);
  }
  EXPECT_EQ(wide.utilization(), 1.0);
  EXPECT_EQ(wide.inflation(), wide.config().max_inflation);
}

}  // namespace
}  // namespace sb::arch
