// Golden kernel trajectory: pins a two-second run bit for bit, so that a
// change to the per-dispatch model path (the interval model, its per-task
// memo of (phase, core type) terms, counter rounding) cannot drift a
// single instruction, switch or joule. The run crosses every memo key
// transition: threads wrap around their phases, migrate across core types
// mid-phase, sleep and wake, and one exits mid-run.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.h"
#include "os/dvfs_governor.h"
#include "os/kernel.h"
#include "os/vanilla_balancer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "workload/benchmarks.h"

namespace sb::os {
namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string describe(const TaskRecord& r) {
  std::ostringstream os;
  os << r.name << " insts=" << r.lifetime_insts
     << " energy=" << hex(r.lifetime_energy_j)
     << " runtime=" << r.lifetime_runtime << " migrations=" << r.migrations
     << " arrived=" << r.arrived_at << " first=" << r.first_dispatched_at
     << " exited=" << r.exited_at << " wait=" << r.total_wait
     << " max_wait=" << r.max_wait << " dispatches=" << r.dispatches;
  return os.str();
}

std::string describe(const perf::HpcCounters& c) {
  std::ostringstream os;
  os << c.cy_busy << ' ' << c.cy_idle << ' ' << c.cy_sleep << ' '
     << c.inst_total << ' ' << c.inst_mem << ' ' << c.inst_branch << ' '
     << c.branch_mispred << ' ' << c.l1i_access << ' ' << c.l1i_miss << ' '
     << c.l1d_access << ' ' << c.l1d_miss << ' ' << c.itlb_access << ' '
     << c.itlb_miss << ' ' << c.dtlb_access << ' ' << c.dtlb_miss;
  return os.str();
}

TEST(KernelGolden, QuadHmpVanillaOndemandTrajectory) {
  const auto platform = arch::Platform::quad_heterogeneous();
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  KernelConfig cfg;
  cfg.seed = 2015;
  cfg.enable_dvfs = true;
  Kernel k(platform, perf, power, cfg);
  k.set_balancer(std::make_unique<VanillaBalancer>());
  k.set_governor(std::make_unique<OndemandGovernor>());

  // Two-phase library threads, all forked onto the Huge core: the vanilla
  // balancer has to spread them over the other three core types.
  Rng rng(11);
  for (const auto& [name, n] : {std::pair{"canneal", 3}, {"swaptions", 2}}) {
    for (auto& tb : workload::BenchmarkLibrary::get(name).spawn(n, rng)) {
      k.fork_on(std::move(tb), 0);
    }
  }
  // Interactive threads: bursts, sleeps, wakes.
  for (const char* name : {"IMB_HTHI", "IMB_MTLI", "IMB_LTMI"}) {
    k.fork(workload::BenchmarkLibrary::get(name).spawn(1, rng)[0]);
  }
  // A fixed-work thread that exits mid-run.
  auto fixed = workload::BenchmarkLibrary::get("bodytrack").spawn(1, rng)[0];
  fixed.name = "fixed";
  fixed.total_instructions = 300'000'000;
  const ThreadId fixed_tid = k.fork(std::move(fixed));

  k.run_until(milliseconds(2000));

  EXPECT_EQ(k.total_instructions(), 11183969530u);
  EXPECT_EQ(hex(k.energy().total_joules()), "0x1.7c1e0963c1f09p+3");
  EXPECT_EQ(k.context_switches(), 3449u);
  EXPECT_EQ(k.total_migrations(), 103u);
  EXPECT_FALSE(k.alive(fixed_tid));

  // Alive threads report exited=kTimeNever (INT64_MAX).
  const std::vector<std::string> want = {
      "canneal/0 insts=182647724 energy=0x1.f9c0483e19494p-1 "
      "runtime=720672374 migrations=94 arrived=0 first=0 "
      "exited=9223372036854775807 wait=1279327626 max_wait=21000000 "
      "dispatches=289",
      "canneal/1 insts=330890257 energy=0x1.06e1e19e4958bp-1 "
      "runtime=961709765 migrations=7 arrived=0 first=6000000 "
      "exited=9223372036854775807 wait=1036290235 max_wait=11840983 "
      "dispatches=366",
      "canneal/2 insts=198950553 energy=0x1.b928556c72cc5p-5 "
      "runtime=1053051180 migrations=1 arrived=0 first=6000000 "
      "exited=9223372036854775807 wait=946948820 max_wait=6000000 "
      "dispatches=358",
      "swaptions/0 insts=1348282029 energy=0x1.0fa5ba5f2186fp-1 "
      "runtime=1064018066 migrations=1 arrived=0 first=6000000 "
      "exited=9223372036854775807 wait=935981934 max_wait=9000000 "
      "dispatches=411",
      "swaptions/1 insts=6017325092 energy=0x1.a5638b541963p+2 "
      "runtime=1025016666 migrations=0 arrived=0 first=8000000 "
      "exited=9223372036854775807 wait=974983334 max_wait=12887308 "
      "dispatches=451",
      "IMB_HTHI/0 insts=1200000066 energy=0x1.287f2ab3b0fefp+1 "
      "runtime=475752942 migrations=0 arrived=0 first=10000000 "
      "exited=9223372036854775807 wait=74966675 max_wait=10000000 "
      "dispatches=280",
      "IMB_MTLI/0 insts=1158873792 energy=0x1.4456e904fd365p-1 "
      "runtime=996683844 migrations=0 arrived=0 first=0 "
      "exited=9223372036854775807 wait=715115942 max_wait=5543804 "
      "dispatches=482",
      "IMB_LTMI/0 insts=447000017 energy=0x1.8ddcc0ab3accap-3 "
      "runtime=791616976 migrations=0 arrived=0 first=0 "
      "exited=9223372036854775807 wait=15790458 max_wait=4000000 "
      "dispatches=504",
      "fixed insts=300000000 energy=0x1.08f87053c5b4p-4 runtime=911478187 "
      "migrations=0 arrived=0 first=0 exited=1817439521 wait=905961334 "
      "max_wait=5988974 dispatches=312",
  };
  ASSERT_EQ(k.num_tasks(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(describe(k.record(static_cast<ThreadId>(i))), want[i]);
  }

  // The drained epoch counters of a live thread: every synthesized event
  // count, rounded per segment.
  const std::vector<EpochSample> samples = k.drain_epoch_samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.front().tid, 0);
  EXPECT_EQ(describe(samples.front().counters),
            "137675194 1061742432 0 182647724 70398692 27092453 953334 "
            "182647724 509256 70398692 12520194 182647724 1207 70398692 "
            "672828");
}

}  // namespace
}  // namespace sb::os
