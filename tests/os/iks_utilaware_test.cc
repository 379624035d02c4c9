#include <gtest/gtest.h>

#include <memory>

#include "arch/platform.h"
#include "os/iks_balancer.h"
#include "os/kernel.h"
#include "os/utilaware_balancer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace sb::os {
namespace {

workload::ThreadBehavior cpu_bound(const std::string& name) {
  workload::ThreadBehavior tb;
  tb.name = name;
  workload::WorkloadProfile p;
  tb.phases.push_back({p, 50'000'000});
  return tb;
}

workload::ThreadBehavior light(const std::string& name) {
  auto tb = cpu_bound(name);
  tb.burst_instructions = 200'000;
  tb.sleep_mean_ns = milliseconds(12);
  return tb;
}

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest()
      : platform_(arch::Platform::octa_big_little()),
        perf_(platform_),
        power_(platform_, perf_) {}

  bool on_big(const Kernel& k, ThreadId t) {
    return platform_.type_of(k.task(t).cpu) == 0;
  }

  arch::Platform platform_;
  perf::PerfModel perf_;
  power::PowerModel power_;
};

TEST_F(BaselinesTest, IksSwitchesPairToBigUnderLoad) {
  Kernel k(platform_, perf_, power_);
  auto bal = std::make_unique<IksBalancer>();
  auto* bp = bal.get();
  k.set_balancer(std::move(bal));
  const ThreadId t = k.fork_on(cpu_bound("hog"), 4);  // a little core
  k.run_for(milliseconds(300));
  EXPECT_TRUE(on_big(k, t));
  EXPECT_GE(bp->switches(), 1u);
}

TEST_F(BaselinesTest, IksFallsBackToLittleWhenIdle) {
  Kernel k(platform_, perf_, power_);
  k.set_balancer(std::make_unique<IksBalancer>());
  const ThreadId t = k.fork_on(light("nap"), 0);  // a big core
  k.run_for(milliseconds(400));
  EXPECT_FALSE(on_big(k, t));
}

TEST_F(BaselinesTest, IksMovesWholePairsNotThreads) {
  // Two threads sharing one pair: a hog and a light task. IKS's cluster
  // granularity forces BOTH onto the big member — the inefficiency GTS and
  // SmartBalance fix with per-thread decisions. Both are pinned to the
  // pair, so logical-CPU balancing can never move one to another pair.
  Kernel k(platform_, perf_, power_);
  std::bitset<kMaxCores> pair_mask;
  pair_mask.set(0);
  pair_mask.set(4);  // pair (big 0, little 4)
  k.set_balancer(std::make_unique<IksBalancer>());
  const ThreadId hog = k.fork_on(cpu_bound("hog"), 4);
  const ThreadId nap = k.fork_on(light("nap"), 4);
  k.set_cpus_allowed(hog, pair_mask);
  k.set_cpus_allowed(nap, pair_mask);
  k.run_for(milliseconds(300));
  EXPECT_TRUE(on_big(k, hog));
  EXPECT_TRUE(on_big(k, nap)) << "IKS cannot split a pair's threads";
}

TEST_F(BaselinesTest, IksRejectsAsymmetricPlatform) {
  auto quad = arch::Platform::quad_heterogeneous();
  perf::PerfModel perf(quad);
  power::PowerModel power(quad, perf);
  Kernel k(quad, perf, power);
  k.set_balancer(std::make_unique<IksBalancer>());
  k.fork(cpu_bound("a"));
  EXPECT_THROW(k.run_for(milliseconds(20)), std::logic_error);
}

TEST_F(BaselinesTest, UtilAwarePacksLightLoadOntoLittles) {
  Kernel k(platform_, perf_, power_);
  k.set_balancer(std::make_unique<UtilAwareBalancer>());
  std::vector<ThreadId> tids;
  for (int i = 0; i < 4; ++i) {
    tids.push_back(k.fork_on(light("nap" + std::to_string(i)), i));  // bigs
  }
  k.run_for(milliseconds(400));
  for (ThreadId t : tids) {
    EXPECT_FALSE(on_big(k, t)) << "light tasks belong on LITTLE cores";
  }
}

TEST_F(BaselinesTest, UtilAwareSpillsHogsToBigs) {
  Kernel k(platform_, perf_, power_);
  k.set_balancer(std::make_unique<UtilAwareBalancer>());
  // 6 CPU hogs: 4 littles can hold at most 4 × 0.85 — with util 1.0 each,
  // only one fits per little; two must spill to bigs... all are util≈1 so
  // at most 4 stay little (one per core), 2 go big.
  std::vector<ThreadId> tids;
  for (int i = 0; i < 6; ++i) {
    tids.push_back(k.fork_on(cpu_bound("hog" + std::to_string(i)), 4));
  }
  k.run_for(milliseconds(400));
  int big_count = 0;
  for (ThreadId t : tids) {
    if (on_big(k, t)) ++big_count;
  }
  EXPECT_GE(big_count, 2);
  EXPECT_LE(big_count, 3);
}

TEST_F(BaselinesTest, UtilAwareBeatsIksOnMixedLoad) {
  // IKS drags light pair-mates onto big cores; utilization-aware packing
  // keeps them on littles → better energy efficiency on a mixed load.
  auto run = [&](std::unique_ptr<LoadBalancer> bal) {
    Kernel k(platform_, perf_, power_);
    k.set_balancer(std::move(bal));
    for (int i = 0; i < 2; ++i) k.fork(cpu_bound("hog" + std::to_string(i)));
    for (int i = 0; i < 6; ++i) k.fork(light("nap" + std::to_string(i)));
    k.run_for(milliseconds(500));
    return static_cast<double>(k.total_instructions()) /
           k.energy().total_joules();
  };
  const double iks = run(std::make_unique<IksBalancer>());
  const double utilaware = run(std::make_unique<UtilAwareBalancer>());
  EXPECT_GT(utilaware, iks);
}

}  // namespace
}  // namespace sb::os
