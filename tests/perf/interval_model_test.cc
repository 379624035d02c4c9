#include "perf/interval_model.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "arch/core_params.h"
#include "arch/platform.h"
#include "perf/perf_model.h"
#include "workload/benchmarks.h"

namespace sb::perf {
namespace {

workload::WorkloadProfile mem_bound() {
  auto p = workload::BenchmarkLibrary::get("canneal").phases[0].profile;
  return p;
}

workload::WorkloadProfile compute_bound() {
  return workload::BenchmarkLibrary::get("swaptions").phases[0].profile;
}

TEST(IntervalModel, PeakIpcApproximatesTable2) {
  const IntervalModel m;
  // Table 2: Huge 4.18, Big 2.60, Medium 1.31, Small 0.91. The mechanistic
  // model is calibrated to land near these (±25%).
  EXPECT_NEAR(m.peak_ipc(arch::huge_core()), 4.18, 4.18 * 0.25);
  EXPECT_NEAR(m.peak_ipc(arch::big_core()), 2.60, 2.60 * 0.25);
  EXPECT_NEAR(m.peak_ipc(arch::medium_core()), 1.31, 1.31 * 0.25);
  EXPECT_NEAR(m.peak_ipc(arch::small_core()), 0.91, 0.91 * 0.25);
}

TEST(IntervalModel, PeakIpcStrictlyOrderedByCoreStrength) {
  const IntervalModel m;
  EXPECT_GT(m.peak_ipc(arch::huge_core()), m.peak_ipc(arch::big_core()));
  EXPECT_GT(m.peak_ipc(arch::big_core()), m.peak_ipc(arch::medium_core()));
  EXPECT_GT(m.peak_ipc(arch::medium_core()), m.peak_ipc(arch::small_core()));
}

TEST(IntervalModel, IpcNeverExceedsIssueWidth) {
  const IntervalModel m;
  for (const auto& core : {arch::huge_core(), arch::small_core()}) {
    for (const auto& name : workload::BenchmarkLibrary::parsec_names()) {
      for (const auto& ph : workload::BenchmarkLibrary::get(name).phases) {
        const auto bd = m.evaluate(ph.profile, core);
        EXPECT_LE(bd.ipc, core.issue_width) << name << " on " << core.name;
        EXPECT_GT(bd.ipc, 0.0);
      }
    }
  }
}

TEST(IntervalModel, MemBoundSuffersMoreFromLatency) {
  const IntervalModel m;
  const auto core = arch::big_core();
  const auto mb_fast = m.evaluate(mem_bound(), core, 80.0);
  const auto mb_slow = m.evaluate(mem_bound(), core, 240.0);
  const auto cb_fast = m.evaluate(compute_bound(), core, 80.0);
  const auto cb_slow = m.evaluate(compute_bound(), core, 240.0);
  const double mb_loss = 1.0 - mb_slow.ipc / mb_fast.ipc;
  const double cb_loss = 1.0 - cb_slow.ipc / cb_fast.ipc;
  EXPECT_GT(mb_loss, 0.2);
  EXPECT_LT(cb_loss, 0.05);
  EXPECT_GT(mb_loss, 3 * cb_loss);
}

TEST(IntervalModel, WarmupDepressesIpc) {
  const IntervalModel m;
  const auto core = arch::medium_core();
  const auto warm = m.evaluate(mem_bound(), core, 80.0, 1.0);
  const auto cold = m.evaluate(mem_bound(), core, 80.0, 3.0);
  EXPECT_LT(cold.ipc, warm.ipc);
  EXPECT_GT(cold.mr_l1d, warm.mr_l1d);
}

TEST(IntervalModel, BiggerCachesLowerMissRates) {
  const IntervalModel m;
  const auto on_huge = m.evaluate(mem_bound(), arch::huge_core());   // 64 KB
  const auto on_small = m.evaluate(mem_bound(), arch::small_core()); // 16 KB
  EXPECT_LE(on_huge.mr_l1d, on_small.mr_l1d);
  EXPECT_LE(on_huge.mr_l1i, on_small.mr_l1i);
}

TEST(IntervalModel, BetterPredictorFewerMispredicts) {
  const IntervalModel m;
  const auto prof = workload::BenchmarkLibrary::get("freqmine").phases[0].profile;
  const auto on_huge = m.evaluate(prof, arch::huge_core());
  const auto on_small = m.evaluate(prof, arch::small_core());
  EXPECT_LT(on_huge.mr_branch, on_small.mr_branch);
}

TEST(IntervalModel, BreakdownSumsToTotalCpi) {
  const IntervalModel m;
  const auto bd = m.evaluate(mem_bound(), arch::big_core());
  EXPECT_NEAR(bd.total_cpi(),
              bd.cpi_base + bd.cpi_l1i + bd.cpi_l1d + bd.cpi_branch +
                  bd.cpi_tlb,
              1e-12);
  EXPECT_NEAR(bd.ipc, std::min(4.0, 1.0 / bd.total_cpi()), 1e-12);
}

TEST(IntervalModel, InvalidLatencyThrows) {
  const IntervalModel m;
  EXPECT_THROW(m.evaluate(mem_bound(), arch::big_core(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(m.evaluate(mem_bound(), arch::big_core(),
                          std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(m.evaluate(mem_bound(), arch::big_core(),
                          std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(IntervalModel, MemTrafficTracksMissRates) {
  const IntervalModel m;
  const auto mb = m.evaluate(mem_bound(), arch::small_core());
  const auto cb = m.evaluate(compute_bound(), arch::small_core());
  EXPECT_GT(mb.mem_misses_per_inst, 5 * cb.mem_misses_per_inst);
}

// --- PerfModel facade + counter synthesis ---

TEST(PerfModel, EvaluateByCoreAndType) {
  const auto platform = arch::Platform::quad_heterogeneous();
  const PerfModel pm(platform);
  const auto by_core = pm.evaluate(mem_bound(), 2);
  const auto by_type = pm.evaluate_on_type(mem_bound(), platform.type_of(2));
  EXPECT_DOUBLE_EQ(by_core.ipc, by_type.ipc);
}

TEST(PerfModel, PeakIpcCachedPerType) {
  const auto platform = arch::Platform::quad_heterogeneous();
  const PerfModel pm(platform);
  const IntervalModel m;
  for (CoreTypeId t = 0; t < platform.num_types(); ++t) {
    EXPECT_DOUBLE_EQ(pm.peak_ipc(t),
                     m.peak_ipc(platform.params_of_type(t)));
  }
}

TEST(PerfModel, CounterSynthesisConsistency) {
  const auto platform = arch::Platform::quad_heterogeneous();
  const PerfModel pm(platform);
  const auto prof = mem_bound();
  const auto bd = pm.evaluate(prof, 1);
  HpcCounters c;
  const double insts = 1e7;
  const double cycles = insts * bd.total_cpi();
  PerfModel::accumulate_counters(c, bd, prof, insts, cycles);

  EXPECT_NEAR(static_cast<double>(c.inst_total), insts, 1.0);
  EXPECT_NEAR(c.imsh(), prof.mem_share, 1e-3);
  EXPECT_NEAR(c.ibsh(), prof.branch_share, 1e-3);
  EXPECT_NEAR(c.mr_l1d(), bd.mr_l1d, 1e-3);
  EXPECT_NEAR(c.mr_branch(), bd.mr_branch, 1e-3);
  EXPECT_NEAR(c.ipc(), bd.ipc, 0.01);
  EXPECT_EQ(c.active_cycles(), c.cy_busy + c.cy_idle);
}

TEST(PerfModel, AccumulateIgnoresNonPositive) {
  HpcCounters c;
  const auto platform = arch::Platform::quad_heterogeneous();
  const PerfModel pm(platform);
  const auto bd = pm.evaluate(mem_bound(), 0);
  PerfModel::accumulate_counters(c, bd, mem_bound(), 0.0, 100.0);
  PerfModel::accumulate_counters(c, bd, mem_bound(), 100.0, 0.0);
  EXPECT_TRUE(c.empty());
}

// --- Bit-exact pin of the model -----------------------------------------

// Every PerfBreakdown field, plus total_cpi(): 13 values.
constexpr std::size_t kFields = 13;
std::array<double, kFields> fields_of(const PerfBreakdown& b) {
  return {b.ipc,     b.cpi_base, b.cpi_l1i, b.cpi_l1d,   b.cpi_branch,
          b.cpi_tlb, b.mr_l1i,   b.mr_l1d,  b.mr_branch, b.mr_itlb,
          b.mr_dtlb, b.mem_misses_per_inst, b.total_cpi()};
}

std::array<std::uint64_t, kFields> bits_of(const PerfBreakdown& b) {
  std::array<std::uint64_t, kFields> out{};
  const auto f = fields_of(b);
  for (std::size_t i = 0; i < kFields; ++i) {
    out[i] = std::bit_cast<std::uint64_t>(f[i]);
  }
  return out;
}

void fnv1a(std::uint64_t& h, std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xff;
    h *= 1099511628211ULL;
  }
}

void expect_fields(const PerfBreakdown& got,
                   const std::array<double, kFields>& want) {
  const auto have = fields_of(got);
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(have[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "field " << i << ": got " << std::hexfloat << have[i];
  }
}

// Every library benchmark's phases plus one jittered copy of each.
std::vector<workload::WorkloadProfile> golden_profiles() {
  std::vector<std::string> names = workload::BenchmarkLibrary::parsec_names();
  for (const auto& n : workload::BenchmarkLibrary::x264_names()) {
    names.push_back(n);
  }
  for (const auto& n : workload::BenchmarkLibrary::imb_names()) {
    names.push_back(n);
  }
  Rng rng(2015);
  std::vector<workload::WorkloadProfile> out;
  for (const auto& name : names) {
    const auto& bench = workload::BenchmarkLibrary::get(name);
    for (const auto& ph : bench.phases) out.push_back(ph.profile);
    const auto jittered = bench.spawn(1, rng);
    for (const auto& ph : jittered[0].phases) out.push_back(ph.profile);
  }
  return out;
}

// Pins IntervalModel bit for bit over every library profile on the four
// Table 2 core types, across bus latencies, warmup factors and a DVFS
// override. The values were recorded from the single-pass model that
// predates the precompute/evaluate split; the split path must agree with
// the one-shot path on every grid point.
TEST(IntervalModel, GoldenBreakdownsBitExact) {
  const IntervalModel m;
  const std::vector<workload::WorkloadProfile> profiles = golden_profiles();
  const arch::CoreParams cores[] = {arch::huge_core(), arch::big_core(),
                                    arch::medium_core(), arch::small_core()};
  std::uint64_t hash = 14695981039346656037ULL;
  std::size_t points = 0;
  for (const auto& p : profiles) {
    for (const auto& core : cores) {
      const IntervalModel::ProfileTerms terms = m.precompute(p, core);
      for (const double lat : {80.0, 137.5, 320.0}) {
        for (const double warm : {1.0, 1.7, 3.0}) {
          for (const double freq : {0.0, 0.6 * core.freq_mhz}) {
            const PerfBreakdown bd = m.evaluate(p, core, lat, warm, freq);
            for (const std::uint64_t b : bits_of(bd)) fnv1a(hash, b);
            ++points;
            const PerfBreakdown split =
                m.evaluate(terms, p, core, lat, warm, freq);
            ASSERT_EQ(bits_of(split), bits_of(bd))
                << p.name << " on " << core.name << " lat " << lat
                << " warmup " << warm << " freq " << freq;
          }
        }
      }
    }
  }
  EXPECT_EQ(points, profiles.size() * 4 * 3 * 3 * 2);
  EXPECT_EQ(hash, 0xd0514625ad5e86b2ULL) << std::hex << "got 0x" << hash;

  // Three breakdowns spelled out, in fields_of() order.
  const auto& canneal = workload::BenchmarkLibrary::get("canneal");
  expect_fields(m.evaluate(canneal.phases[0].profile, arch::big_core(), 137.5,
                           1.7, 0.0),
                {0x1.50b832145104ap-4, 0x1.aaaaaaaaaaaabp-1,
                 0x1.9b7d657583f1cp-5, 0x1.6043886594af5p+3,
                 0x1.182a9930be0dfp-3, 0x1.162877ee4e26dp-3,
                 0x1.125398f902a13p-8, 0x1.e76c8b4395811p-3,
                 0x1.70a3d70a3d70ap-5, 0x1.64840e1719f8p-18,
                 0x1.85f06f6944673p-7, 0x1.ebdcb65e8afa1p-5,
                 0x1.8542fcba310ecp+3});
  const auto& swaptions = workload::BenchmarkLibrary::get("swaptions");
  expect_fields(m.evaluate(swaptions.phases[1].profile, arch::small_core(),
                           320.0, 3.0, 0.6 * arch::small_core().freq_mhz),
                {0x1.10867e5460741p-1, 0x1.147361135c307p+0,
                 0x1.a1a254a7123cdp-4, 0x1.35a858793dd98p-1,
                 0x1.590c0ad03d9aap-4, 0x1.00cf41f212d77p-7,
                 0x1.166c386f617dep-7, 0x1.70a3d70a3d70ap-4,
                 0x1.df3b645a1cacp-5, 0x1.8e219652bd3c3p-17,
                 0x1.d2f1a9fbe76c8p-11, 0x1.21f718b68236cp-7,
                 0x1.e0f411cb54406p+0});
  // The last profile of the grid: a jittered IMB phase.
  expect_fields(m.evaluate(profiles.back(), arch::huge_core(), 80.0, 1.0, 0.0),
                {0x1.3ed33f3fd4188p-2, 0x1.fd4221252ad95p-1,
                 0x1.4bc6a7ef9db22p-5, 0x1.01f7bf652e5cap+1,
                 0x1.d03119d6c93e9p-4, 0x1.88c4166c5d03ep-5,
                 0x1.ba5e353f7ced8p-9, 0x1.9551d853e5beep-4,
                 0x1.8f5084c6fa693p-6, 0x1.d7dbf487fcb93p-18,
                 0x1.1eb851eb851ecp-8, 0x1.19ed54932375p-6,
                 0x1.9b1bfb769f47cp+1});
}

class AllBenchmarksOnAllCores
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AllBenchmarksOnAllCores, FasterOrEqualOnStrongerCores) {
  // Property: for every benchmark phase, absolute throughput (IPS) on a
  // stronger core is at least that of the next weaker core. IPC may invert
  // (frequency-driven memory penalties), throughput must not.
  const IntervalModel m;
  const arch::CoreParams order[] = {arch::huge_core(), arch::big_core(),
                                    arch::medium_core(), arch::small_core()};
  for (const auto& ph : workload::BenchmarkLibrary::get(GetParam()).phases) {
    for (int i = 0; i + 1 < 4; ++i) {
      const double ips_strong =
          m.evaluate(ph.profile, order[i]).ipc * order[i].freq_ghz();
      const double ips_weak =
          m.evaluate(ph.profile, order[i + 1]).ipc * order[i + 1].freq_ghz();
      EXPECT_GE(ips_strong, ips_weak * 0.98)
          << GetParam() << " phase " << ph.profile.name << " cores "
          << order[i].name << " vs " << order[i + 1].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parsec, AllBenchmarksOnAllCores,
    ::testing::ValuesIn(workload::BenchmarkLibrary::parsec_names()));

}  // namespace
}  // namespace sb::perf
