// Randomized kernel stress: for a sweep of seeds, run mixed workloads under
// every policy and assert the global invariants that must hold regardless
// of scheduling decisions — exact time accounting, instruction conservation
// between per-thread and per-core views, affinity, counter sanity, and
// bit-exact determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "arch/platform.h"
#include "os/gts_balancer.h"
#include "os/kernel.h"
#include "os/vanilla_balancer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "workload/benchmarks.h"
#include "workload/synthetic.h"

namespace sb::os {
namespace {

struct StressCase {
  std::uint64_t seed;
  int policy;  // 0=null 1=vanilla 2=gts(biglittle only)
  bool big_little;
};

class KernelStress
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

std::unique_ptr<LoadBalancer> make_policy(int id) {
  switch (id) {
    case 1:
      return std::make_unique<VanillaBalancer>();
    case 2:
      return std::make_unique<GtsBalancer>();
    default:
      return std::make_unique<NullBalancer>();
  }
}

void populate(Kernel& k, Rng& rng) {
  const char* names[] = {"canneal", "swaptions",  "bodytrack",
                         "IMB_HTHI", "IMB_LTLI",  "x264_H_crew",
                         "streamcluster"};
  const int kinds = 2 + static_cast<int>(rng.randi(0, 3));
  for (int i = 0; i < kinds; ++i) {
    const auto& name = names[rng.randi(0, 7)];
    auto threads = workload::BenchmarkLibrary::get(name).spawn(
        1 + static_cast<int>(rng.randi(0, 4)), rng);
    for (auto& t : threads) {
      // Some tasks are finite, some pinned, some reniced.
      if (rng.uniform() < 0.3) t.total_instructions = 5'000'000;
      if (rng.uniform() < 0.3) t.nice = static_cast<int>(rng.randi(-5, 6));
      k.fork(std::move(t));
    }
  }
}

TEST_P(KernelStress, InvariantsHoldUnderRandomLoad) {
  const auto [seed_base, policy, big_little] = GetParam();
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(seed_base);
  const auto platform = big_little ? arch::Platform::octa_big_little()
                                   : arch::Platform::quad_heterogeneous();
  if (policy == 2 && !big_little) GTEST_SKIP() << "GTS needs big.LITTLE";

  perf::PerfModel perf(platform);
  power::PowerModel power(platform, perf);
  KernelConfig cfg;
  cfg.seed = seed;
  Kernel k(platform, perf, power, cfg);
  k.set_balancer(make_policy(policy));
  Rng rng(seed);
  populate(k, rng);

  // Pin one task to a random core as an affinity probe.
  const ThreadId pinned = 0;
  const CoreId pin_core = static_cast<CoreId>(rng.randi(0, platform.num_cores()));
  std::bitset<kMaxCores> mask;
  mask.set(static_cast<std::size_t>(pin_core));
  k.set_cpus_allowed(pinned, mask);

  const TimeNs duration = milliseconds(300);
  k.run_for(duration);

  // --- Invariant 1: per-core time is exactly accounted ---
  for (CoreId c = 0; c < k.num_cores(); ++c) {
    EXPECT_EQ(k.energy().busy_time(c) + k.energy().idle_time(c) +
                  k.energy().sleep_time(c),
              duration)
        << "core " << c;
  }

  // --- Invariant 2: instruction conservation across views ---
  std::uint64_t core_insts = 0;
  for (CoreId c = 0; c < k.num_cores(); ++c) core_insts += k.core_instructions(c);
  EXPECT_EQ(core_insts, k.total_instructions());

  // --- Invariant 3: affinity respected ---
  EXPECT_EQ(k.task(pinned).cpu, pin_core);

  // --- Invariant 4: counter and energy sanity for every task ---
  for (std::size_t i = 0; i < k.num_tasks(); ++i) {
    const Task& t = k.task(static_cast<ThreadId>(i));
    const auto& c = t.epoch_counters;
    EXPECT_LE(c.inst_mem, c.inst_total) << t.name;
    EXPECT_LE(c.inst_branch, c.inst_total) << t.name;
    EXPECT_LE(c.branch_mispred, c.inst_branch + 1) << t.name;
    EXPECT_LE(c.l1d_miss, c.l1d_access + 1) << t.name;
    EXPECT_GE(t.lifetime_energy_j, 0.0) << t.name;
    EXPECT_FALSE(std::isnan(t.lifetime_energy_j)) << t.name;
    if (t.behavior.total_instructions > 0 && t.state == TaskState::Exited) {
      EXPECT_NEAR(static_cast<double>(t.lifetime_insts),
                  static_cast<double>(t.behavior.total_instructions), 2.0)
          << t.name;
    }
  }

  // --- Invariant 5: energy is positive and finite ---
  const double joules = k.energy().total_joules();
  EXPECT_GT(joules, 0.0);
  EXPECT_FALSE(std::isnan(joules));

  // --- Invariant 6: bit-exact determinism ---
  Kernel k2(platform, perf, power, cfg);
  k2.set_balancer(make_policy(policy));
  Rng rng2(seed);
  populate(k2, rng2);
  k2.set_cpus_allowed(pinned, mask);
  k2.run_for(duration);
  EXPECT_EQ(k2.total_instructions(), k.total_instructions());
  EXPECT_DOUBLE_EQ(k2.energy().total_joules(), joules);
  EXPECT_EQ(k2.total_migrations(), k.total_migrations());
}

// The live-task index against the brute-force scan it replaced: alive tids
// from task(tid).alive() over every task ever forked, and Σ lifetime_insts.
void expect_index_matches_scan(Kernel& k) {
  std::vector<ThreadId> alive;
  std::uint64_t insts = 0;
  for (std::size_t i = 0; i < k.num_tasks(); ++i) {
    const Task& t = k.task(static_cast<ThreadId>(i));
    if (t.alive()) alive.push_back(t.tid);
    insts += t.lifetime_insts;
  }
  EXPECT_EQ(k.alive_threads(), alive);
  std::vector<ThreadId> drained;
  for (const EpochSample& s : k.drain_epoch_samples()) drained.push_back(s.tid);
  EXPECT_EQ(drained, alive);
  EXPECT_EQ(k.all_exited(), alive.empty() && k.num_tasks() > 0);
  EXPECT_EQ(k.total_instructions(), insts);
}

TEST_P(KernelStress, LiveIndexMatchesBruteForceScan) {
  const auto [seed_base, policy, big_little] = GetParam();
  const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(seed_base);
  const auto platform = big_little ? arch::Platform::octa_big_little()
                                   : arch::Platform::quad_heterogeneous();
  if (policy == 2 && !big_little) GTEST_SKIP() << "GTS needs big.LITTLE";

  perf::PerfModel perf(platform);
  power::PowerModel power(platform, perf);
  KernelConfig cfg;
  cfg.seed = seed;
  Kernel k(platform, perf, power, cfg);
  k.set_balancer(make_policy(policy));
  Rng rng(seed);
  const char* names[] = {"canneal", "swaptions", "bodytrack", "IMB_HTHI",
                         "IMB_LTLI", "x264_H_crew", "streamcluster"};
  const int n = platform.num_cores();
  auto behavior = [&] {
    auto threads =
        workload::BenchmarkLibrary::get(names[rng.randi(0, 7)]).spawn(1, rng);
    workload::ThreadBehavior t = std::move(threads.front());
    // Every task is finite, so exits keep coming all run long; about a
    // third of the tasks sleep between bursts.
    t.total_instructions =
        1'000'000 * static_cast<std::uint64_t>(1 + rng.randi(0, 30));
    if (rng.uniform() < 0.33) {
      t.burst_instructions =
          500'000 * static_cast<std::uint64_t>(1 + rng.randi(0, 4));
      t.sleep_mean_ns = microseconds(200 + 100 * rng.randi(0, 30));
    }
    if (rng.uniform() < 0.3) t.nice = static_cast<int>(rng.randi(-5, 6));
    return t;
  };
  auto random_online_core = [&] {
    CoreId c = static_cast<CoreId>(rng.randi(0, n));
    while (!k.core_online(c)) c = (c + 1) % n;
    return c;
  };

  int evacuations = 0;
  for (int step = 0; step < 80; ++step) {
    const double action = rng.uniform();
    const std::vector<ThreadId> alive = k.alive_threads();
    auto random_alive = [&] {
      return alive[static_cast<std::size_t>(
          rng.randi(0, static_cast<std::int64_t>(alive.size())))];
    };
    if (action < 0.35 || alive.empty()) {
      k.fork(behavior());
    } else if (action < 0.55) {
      k.fork_on(behavior(), random_online_core());
    } else if (action < 0.75) {
      k.migrate(random_alive(), random_online_core());
    } else if (action < 0.9) {
      // Unplug the core of a live (finite) task, evacuating it.
      const CoreId c = k.task(random_alive()).cpu;
      if (c != kInvalidCore && k.num_online_cores() > 1) {
        k.set_core_online(c, false);
        ++evacuations;
      }
    } else {
      for (CoreId c = 0; c < n; ++c) k.set_core_online(c, true);  // replug
    }
    k.run_for(microseconds(500 + 500 * rng.randi(0, 20)));
    expect_index_matches_scan(k);
  }
  // Exits interleaved with forks and unplugs.
  EXPECT_LT(k.alive_threads().size(), k.num_tasks());
  EXPECT_GT(evacuations, 0);
  for (CoreId c = 0; c < n; ++c) k.set_core_online(c, true);
  // Drain: with no more forks every finite task exits.
  for (int chunk = 0; chunk < 400 && !k.all_exited(); ++chunk) {
    k.run_for(milliseconds(5));
    expect_index_matches_scan(k);
  }
  EXPECT_TRUE(k.all_exited());
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelStress,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Bool()));

}  // namespace
}  // namespace sb::os
