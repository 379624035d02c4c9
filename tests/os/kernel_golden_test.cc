// Golden kernel trajectories: each pins a two-second run bit for bit, so
// that a change to the per-dispatch path (the interval model, its per-task
// memo of (phase, core type) terms, counter rounding, the shared bus, the
// runqueue order) cannot drift a single instruction, switch or joule. The
// quad run crosses every memo key transition: threads wrap around their
// phases, migrate across core types mid-phase, sleep and wake, and one
// exits mid-run. The scaled run crosses the bus's saturation certificate.
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

TEST(KernelGolden, ScaledBusSaturationTrajectory) {
  // Memory-heavy and bursty threads on a 4-cluster, 8-core platform behind
  // a 2 GB/s bus (a sixth of the default, so that eight cores can fill
  // it). Its utilization reads 1.0 at some of the step boundaries below and
  // under 1.0 at others, so the run crosses the bus's saturation
  // certificate in both directions; with 30 threads on 8 cores every
  // dispatch pops from a runqueue several entries deep.
  const auto platform = arch::Platform::scaled_heterogeneous(2);
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  KernelConfig cfg;
  cfg.seed = 2016;
  cfg.bus.bandwidth_gbps = 2.0;
  Kernel k(platform, perf, power, cfg);
  k.set_balancer(std::make_unique<VanillaBalancer>());

  Rng rng(13);
  // The library threads all fork onto core 0, so the balancer spreads them.
  for (const auto& [name, n] :
       {std::pair{"canneal", 16}, {"streamcluster", 8}, {"swaptions", 2}}) {
    for (auto& tb : workload::BenchmarkLibrary::get(name).spawn(n, rng)) {
      k.fork_on(std::move(tb), 0);
    }
  }
  for (const char* name : {"IMB_HTHI", "IMB_HTMI", "IMB_MTHI", "IMB_LTHI"}) {
    k.fork(workload::BenchmarkLibrary::get(name).spawn(1, rng)[0]);
  }

  std::string utilizations;
  int saturated = 0;
  for (int step = 1; step <= 20; ++step) {
    k.run_until(milliseconds(100) * step);
    const double u = k.bus().utilization();
    saturated += u == 1.0 ? 1 : 0;
    utilizations += hex(u) + " ";
  }
  EXPECT_EQ(saturated, 8) << utilizations;

  EXPECT_EQ(k.total_instructions(), 8181922759u);
  EXPECT_EQ(hex(k.energy().total_joules()), "0x1.0bd6bac4e20b5p+4");
  EXPECT_EQ(k.context_switches(), 10127u);
  EXPECT_EQ(k.total_migrations(), 26u);

  const std::vector<std::string> want = {
      "canneal/0 insts=53399783 energy=0x1.94ea9e369c3ddp-4 runtime=509768335 "
      "migrations=1 arrived=0 first=0 exited=9223372036854775807 "
      "wait=1489731665 max_wait=5919290 dispatches=340",
      "canneal/1 insts=58079848 energy=0x1.50eb99645fcddp-4 runtime=508182108 "
      "migrations=1 arrived=0 first=6000000 exited=9223372036854775807 "
      "wait=1491317892 max_wait=6000000 dispatches=341",
      "canneal/2 insts=58287458 energy=0x1.df526a4d047ccp-6 runtime=671000000 "
      "migrations=1 arrived=0 first=6000000 exited=9223372036854775807 "
      "wait=1329000000 max_wait=6000000 dispatches=342",
      "canneal/3 insts=61529829 energy=0x1.fc7add22cd857p-6 runtime=669709988 "
      "migrations=1 arrived=0 first=6000000 exited=9223372036854775807 "
      "wait=1328290012 max_wait=6000000 dispatches=341",
      "canneal/4 insts=62285254 energy=0x1.90a781095efa4p-4 runtime=499289537 "
      "migrations=3 arrived=0 first=6000000 exited=9223372036854775807 "
      "wait=1498710463 max_wait=7500000 dispatches=337",
      "canneal/5 insts=58650149 energy=0x1.47c013d0ac6dap-4 runtime=500115242 "
      "migrations=2 arrived=0 first=6000000 exited=9223372036854775807 "
      "wait=1499884758 max_wait=7500000 dispatches=341",
      "canneal/6 insts=61783787 energy=0x1.9d3a599b7089dp-3 runtime=517023741 "
      "migrations=1 arrived=0 first=6000000 exited=9223372036854775807 "
      "wait=1480976259 max_wait=13000000 dispatches=302",
      "canneal/7 insts=63145288 energy=0x1.503340eadfb34p-4 runtime=502467664 "
      "migrations=1 arrived=0 first=9000000 exited=9223372036854775807 "
      "wait=1495532336 max_wait=9000000 dispatches=340",
      "canneal/8 insts=61913255 energy=0x1.94578867453b1p-3 runtime=514111825 "
      "migrations=1 arrived=0 first=6000000 exited=9223372036854775807 "
      "wait=1485888175 max_wait=14500000 dispatches=302",
      "canneal/9 insts=55685218 energy=0x1.5c00890082fbdp-4 runtime=501250000 "
      "migrations=1 arrived=0 first=6750000 exited=9223372036854775807 "
      "wait=1498750000 max_wait=7500000 dispatches=340",
      "canneal/10 insts=58520513 energy=0x1.04bf40738dc52p-5 "
      "runtime=663750000 migrations=1 arrived=0 first=7500000 "
      "exited=9223372036854775807 wait=1336250000 max_wait=7500000 "
      "dispatches=342",
      "canneal/11 insts=65699990 energy=0x1.07866a8669976p-5 "
      "runtime=665259031 migrations=1 arrived=0 first=8250000 "
      "exited=9223372036854775807 wait=1334740969 max_wait=8250000 "
      "dispatches=340",
      "canneal/12 insts=56885301 energy=0x1.0b3d3d1f4894ap+0 "
      "runtime=497185289 migrations=1 arrived=0 first=9000000 "
      "exited=9223372036854775807 wait=1500814711 max_wait=10000000 "
      "dispatches=342",
      "canneal/13 insts=68379751 energy=0x1.ac577b33f2e7fp-3 "
      "runtime=505264008 migrations=1 arrived=0 first=9750000 "
      "exited=9223372036854775807 wait=1492735992 max_wait=13044526 "
      "dispatches=317",
      "canneal/14 insts=59631692 energy=0x1.9eca845754aa6p-3 "
      "runtime=512571984 migrations=1 arrived=0 first=10500000 "
      "exited=9223372036854775807 wait=1487428016 max_wait=13412194 "
      "dispatches=301",
      "canneal/15 insts=59935577 energy=0x1.48dedf38699e7p-4 "
      "runtime=499398759 migrations=1 arrived=0 first=11250000 "
      "exited=9223372036854775807 wait=1500601241 max_wait=11250000 "
      "dispatches=338",
      "streamcluster/0 insts=147328099 energy=0x1.54d2738767b2p+0 "
      "runtime=496024821 migrations=1 arrived=0 first=12000000 "
      "exited=9223372036854775807 wait=1503475179 max_wait=12000000 "
      "dispatches=339",
      "streamcluster/1 insts=108162281 energy=0x1.fdf6977fc38a1p-3 "
      "runtime=502923047 migrations=1 arrived=0 first=12750000 "
      "exited=9223372036854775807 wait=1497076953 max_wait=14500000 "
      "dispatches=315",
      "streamcluster/2 insts=74467800 energy=0x1.8d22563ee7b31p-4 "
      "runtime=497750000 migrations=1 arrived=0 first=13500000 "
      "exited=9223372036854775807 wait=1502250000 max_wait=13500000 "
      "dispatches=341",
      "streamcluster/3 insts=78445535 energy=0x1.2c2b0c696ae7dp-5 "
      "runtime=660750000 migrations=1 arrived=0 first=14250000 "
      "exited=9223372036854775807 wait=1337250000 max_wait=14250000 "
      "dispatches=340",
      "streamcluster/4 insts=77507945 energy=0x1.1d4ae27d8d99cp-5 "
      "runtime=660530981 migrations=1 arrived=0 first=15000000 "
      "exited=9223372036854775807 wait=1339469019 max_wait=15000000 "
      "dispatches=343",
      "streamcluster/5 insts=167384074 energy=0x1.6047a51273824p+0 "
      "runtime=494889665 migrations=1 arrived=0 first=15750000 "
      "exited=9223372036854775807 wait=1505110335 max_wait=15750000 "
      "dispatches=340",
      "streamcluster/6 insts=94563377 energy=0x1.da267fc652894p-3 "
      "runtime=503319456 migrations=1 arrived=0 first=16500000 "
      "exited=9223372036854775807 wait=1496680544 max_wait=16500000 "
      "dispatches=311",
      "streamcluster/7 insts=164901299 energy=0x1.49d1d4bb4b9cdp+0 "
      "runtime=507113248 migrations=0 arrived=0 first=17250000 "
      "exited=9223372036854775807 wait=1490886752 max_wait=17250000 "
      "dispatches=325",
      "swaptions/0 insts=2237070052 energy=0x1.651c33fa8e451p+1 "
      "runtime=506573872 migrations=0 arrived=0 first=18000000 "
      "exited=9223372036854775807 wait=1493426128 max_wait=18000000 "
      "dispatches=365",
      "swaptions/1 insts=2381744223 energy=0x1.719f8a71a8af6p+1 "
      "runtime=507718641 migrations=0 arrived=0 first=19500000 "
      "exited=9223372036854775807 wait=1492281359 max_wait=19500000 "
      "dispatches=355",
      "IMB_HTHI/0 insts=580000019 energy=0x1.885b09ba72cd9p+0 "
      "runtime=461344239 migrations=0 arrived=0 first=21000000 "
      "exited=9223372036854775807 wait=843553928 max_wait=21000000 "
      "dispatches=354",
      "IMB_HTMI/0 insts=685857362 energy=0x1.d80029d515f4cp+0 "
      "runtime=506178580 migrations=0 arrived=0 first=0 "
      "exited=9223372036854775807 wait=1226808843 max_wait=5547896 "
      "dispatches=368",
      "IMB_MTHI/0 insts=279678000 energy=0x1.09184e812dd86p-2 "
      "runtime=479743489 migrations=0 arrived=0 first=0 "
      "exited=9223372036854775807 wait=735805708 max_wait=5500000 "
      "dispatches=367",
      "IMB_LTHI/0 insts=141000000 energy=0x1.92ca5363b9f49p-3 "
      "runtime=454792450 migrations=0 arrived=0 first=0 "
      "exited=9223372036854775807 wait=383150284 max_wait=5250418 "
      "dispatches=366",
  };
  ASSERT_EQ(k.num_tasks(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(describe(k.record(static_cast<ThreadId>(i))), want[i]);
  }
}

}  // namespace
}  // namespace sb::os
