// Randomized kernel stress: for a sweep of seeds, run mixed workloads under
// every policy and assert the global invariants that must hold regardless
// of scheduling decisions — exact time accounting, instruction conservation
// between per-thread and per-core views, affinity, counter sanity, exit
// records against a shadow model of every forked task, and bit-exact
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
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

/// Forks a random mix into a fresh kernel; returns each tid's instruction
/// budget (0 = runs forever), since an exited task's behavior is freed.
std::vector<std::uint64_t> populate(Kernel& k, Rng& rng) {
  const char* names[] = {"canneal", "swaptions",  "bodytrack",
                         "IMB_HTHI", "IMB_LTLI",  "x264_H_crew",
                         "streamcluster"};
  std::vector<std::uint64_t> budgets;
  const int kinds = 2 + static_cast<int>(rng.randi(0, 3));
  for (int i = 0; i < kinds; ++i) {
    const auto& name = names[rng.randi(0, 7)];
    auto threads = workload::BenchmarkLibrary::get(name).spawn(
        1 + static_cast<int>(rng.randi(0, 4)), rng);
    for (auto& t : threads) {
      // Some tasks are finite, some pinned, some reniced.
      if (rng.uniform() < 0.3) t.total_instructions = 5'000'000;
      if (rng.uniform() < 0.3) t.nice = static_cast<int>(rng.randi(-5, 6));
      budgets.push_back(t.total_instructions);
      k.fork(std::move(t));
    }
  }
  return budgets;
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
  const std::vector<std::uint64_t> budgets = populate(k, rng);

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
  // The probe moved only at the affinity kick, off core 0 where fork put
  // it; its core is checked while it lives (an exited task has none).
  EXPECT_EQ(k.record(pinned).migrations, pin_core != 0 ? 1u : 0u);
  if (k.alive(pinned)) {
    EXPECT_EQ(k.task(pinned).cpu, pin_core);
  }

  // --- Invariant 4: counter and energy sanity for every task ---
  // Epoch counters exist only on live tasks; an exited task keeps its
  // record, whose instructions must equal the budget it was forked with.
  ASSERT_EQ(k.num_tasks(), budgets.size());
  for (std::size_t i = 0; i < k.num_tasks(); ++i) {
    const auto tid = static_cast<ThreadId>(i);
    const TaskRecord r = k.record(tid);
    EXPECT_GE(r.lifetime_energy_j, 0.0) << r.name;
    EXPECT_FALSE(std::isnan(r.lifetime_energy_j)) << r.name;
    if (k.alive(tid)) {
      const auto& c = k.task(tid).epoch_counters;
      EXPECT_LE(c.inst_mem, c.inst_total) << r.name;
      EXPECT_LE(c.inst_branch, c.inst_total) << r.name;
      EXPECT_LE(c.branch_mispred, c.inst_branch + 1) << r.name;
      EXPECT_LE(c.l1d_miss, c.l1d_access + 1) << r.name;
    } else {
      EXPECT_GT(budgets[i], 0u) << r.name << " exited without a budget";
      EXPECT_NEAR(static_cast<double>(r.lifetime_insts),
                  static_cast<double>(budgets[i]), 2.0)
          << r.name;
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

// The test's own model of each task it forked: what it was forked with and
// its record at the last check it was still alive.
struct Shadow {
  std::string name;
  std::uint64_t budget = 0;
  TimeNs forked_at = 0;
  TaskRecord last;  // last live reading
  bool exited = false;
};

// Checks the kernel against the brute-force scan the live-task index
// replaced, and every record against the shadow model. A task that left
// the live index since the previous check, at simulated time `since`, must
// have exited inside [since, now].
void expect_kernel_matches_shadow(Kernel& k, std::vector<Shadow>& shadow,
                                  TimeNs since) {
  ASSERT_EQ(k.num_tasks(), shadow.size());
  std::vector<ThreadId> held;  // tids whose Task the kernel still holds
  std::uint64_t insts = 0;
  std::uint64_t migrations = 0;
  std::uint64_t dispatches = 0;
  for (std::size_t i = 0; i < shadow.size(); ++i) {
    const auto tid = static_cast<ThreadId>(i);
    Shadow& sh = shadow[i];
    const TaskRecord r = k.record(tid);
    insts += r.lifetime_insts;
    migrations += r.migrations;
    dispatches += r.dispatches;
    EXPECT_EQ(r.name, sh.name);
    EXPECT_EQ(r.arrived_at, sh.forked_at) << r.name;
    if (k.alive(tid)) {
      // A live task's record is built from its Task, field for field.
      held.push_back(tid);
      const Task& t = k.task(tid);
      EXPECT_FALSE(r.exited()) << r.name;
      EXPECT_EQ(r.lifetime_insts, t.lifetime_insts) << r.name;
      EXPECT_EQ(r.lifetime_energy_j, t.lifetime_energy_j) << r.name;
      EXPECT_EQ(r.lifetime_runtime, t.lifetime_runtime) << r.name;
      EXPECT_EQ(r.migrations, t.migrations) << r.name;
      EXPECT_EQ(r.first_dispatched_at, t.first_dispatched_at) << r.name;
      EXPECT_EQ(r.total_wait, t.total_wait) << r.name;
      EXPECT_EQ(r.max_wait, t.max_wait) << r.name;
      EXPECT_EQ(r.dispatches, t.dispatches) << r.name;
      sh.last = r;
      continue;
    }
    EXPECT_THROW(k.task(tid), std::logic_error) << r.name;
    ASSERT_TRUE(r.exited()) << r.name;
    if (!sh.exited) {
      EXPECT_GE(r.exited_at, since) << r.name;
      EXPECT_LE(r.exited_at, k.now()) << r.name;
      sh.exited = true;
    }
    EXPECT_NEAR(static_cast<double>(r.lifetime_insts),
                static_cast<double>(sh.budget), 2.0)
        << r.name;
    // Lifetime counters only grow: the record holds at least the last live
    // reading, and the first dispatch is the one seen while alive.
    EXPECT_GE(r.lifetime_energy_j, sh.last.lifetime_energy_j) << r.name;
    EXPECT_GE(r.lifetime_runtime, sh.last.lifetime_runtime) << r.name;
    EXPECT_GE(r.migrations, sh.last.migrations) << r.name;
    EXPECT_GE(r.dispatches, std::max<std::uint64_t>(sh.last.dispatches, 1))
        << r.name;
    EXPECT_GE(r.total_wait, sh.last.total_wait) << r.name;
    EXPECT_GE(r.max_wait, sh.last.max_wait) << r.name;
    EXPECT_LE(r.max_wait, r.total_wait) << r.name;
    if (sh.last.first_dispatched_at != kTimeNever) {
      EXPECT_EQ(r.first_dispatched_at, sh.last.first_dispatched_at) << r.name;
    }
    EXPECT_GE(r.first_dispatched_at, r.arrived_at) << r.name;
    EXPECT_LE(r.first_dispatched_at, r.exited_at) << r.name;
  }
  // The kernel holds a Task for exactly the indexed live tids.
  EXPECT_EQ(k.alive_threads(), held);
  std::vector<ThreadId> drained;
  for (const EpochSample& s : k.drain_epoch_samples()) drained.push_back(s.tid);
  EXPECT_EQ(drained, held);
  EXPECT_EQ(k.all_exited(), held.empty() && k.num_tasks() > 0);
  // Conservation across live tasks and exit records: instructions and
  // migrations sum to the kernel totals; every dispatch ended in a context
  // switch unless its task is still running.
  EXPECT_EQ(k.total_instructions(), insts);
  EXPECT_EQ(k.total_migrations(), migrations);
  std::uint64_t running = 0;
  for (CoreId c = 0; c < k.num_cores(); ++c) {
    if (k.core_running(c) != kInvalidThread) ++running;
  }
  EXPECT_EQ(k.context_switches() + running, dispatches);
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
  std::vector<Shadow> shadow;
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
    Shadow& sh = shadow.emplace_back();
    sh.name = t.name;
    sh.budget = t.total_instructions;
    sh.forked_at = k.now();
    return t;
  };
  auto random_online_core = [&] {
    CoreId c = static_cast<CoreId>(rng.randi(0, n));
    while (!k.core_online(c)) c = (c + 1) % n;
    return c;
  };

  int evacuations = 0;
  for (int step = 0; step < 80; ++step) {
    const TimeNs since = k.now();
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
    expect_kernel_matches_shadow(k, shadow, since);
  }
  // Exits interleaved with forks and unplugs.
  EXPECT_LT(k.alive_threads().size(), k.num_tasks());
  EXPECT_GT(evacuations, 0);
  for (CoreId c = 0; c < n; ++c) k.set_core_online(c, true);
  // Drain: with no more forks every finite task exits.
  for (int chunk = 0; chunk < 400 && !k.all_exited(); ++chunk) {
    const TimeNs since = k.now();
    k.run_for(milliseconds(5));
    expect_kernel_matches_shadow(k, shadow, since);
  }
  EXPECT_TRUE(k.all_exited());
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelStress,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Bool()));

}  // namespace
}  // namespace sb::os
