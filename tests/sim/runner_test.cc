// ExperimentRunner determinism harness: the parallel runner must produce
// bit-identical results regardless of worker count or completion order,
// preserve submission order, contain per-spec failures, and honor the
// pinned replica-seed schedule the CSV golden figures depend on.
#include "sim/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "arch/platform.h"
#include "os/vanilla_balancer.h"

namespace sb::sim {
namespace {

ExperimentRunner runner_with(int threads) {
  ExperimentRunner::Config cfg;
  cfg.threads = threads;
  return ExperimentRunner(cfg);
}

/// A mixed vanilla/GTS/SmartBalance batch across two platforms and several
/// seeds — enough policy and workload diversity to catch schedule-dependent
/// state leaking between runs.
std::vector<ExperimentSpec> mixed_batch() {
  std::vector<ExperimentSpec> specs;
  const auto quad = arch::Platform::quad_heterogeneous();
  const auto octa = arch::Platform::octa_big_little();
  auto add = [&](const arch::Platform& p, std::uint64_t seed,
                 const std::string& bench, int threads,
                 const std::string& policy_name, BalancerFactory policy) {
    ExperimentSpec spec;
    spec.platform = p;
    spec.cfg.duration = milliseconds(60);
    spec.cfg.seed = seed;
    spec.workload = [bench, threads](Simulation& s) {
      s.add_benchmark(bench, threads);
    };
    spec.policy = std::move(policy);
    spec.label = bench + "/" + policy_name;
    spec.policy_name = policy_name;
    specs.push_back(std::move(spec));
  };
  add(quad, 1, "swaptions", 4, "vanilla", vanilla_factory());
  add(quad, 2, "canneal", 4, "smartbalance", smartbalance_factory());
  add(octa, 3, "bodytrack", 8, "gts", policy_factory("gts"));
  add(octa, 4, "ferret", 6, "vanilla", vanilla_factory());
  add(quad, 5, "IMB_HTHI", 2, "smartbalance", smartbalance_factory());
  add(octa, 6, "x264_H_crew", 8, "gts", policy_factory("gts"));
  return specs;
}

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.balance_passes, b.balance_passes);
  // Bit-identical, not approximately equal: the runs must execute the very
  // same trajectory.
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_DOUBLE_EQ(a.ips, b.ips);
  EXPECT_DOUBLE_EQ(a.ips_per_watt, b.ips_per_watt);
  // Final allocations: per-core instruction/energy split and per-thread
  // migration counts must match exactly.
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    EXPECT_EQ(a.cores[c].instructions, b.cores[c].instructions) << "core " << c;
    EXPECT_DOUBLE_EQ(a.cores[c].energy_j, b.cores[c].energy_j) << "core " << c;
    EXPECT_EQ(a.cores[c].busy_ns, b.cores[c].busy_ns) << "core " << c;
  }
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    EXPECT_EQ(a.threads[i].tid, b.threads[i].tid) << "thread " << i;
    EXPECT_EQ(a.threads[i].instructions, b.threads[i].instructions)
        << "thread " << i;
    EXPECT_EQ(a.threads[i].migrations, b.threads[i].migrations)
        << "thread " << i;
  }
}

TEST(Runner, BitIdenticalAcrossThreadCounts) {
  const auto specs = mixed_batch();
  const auto r1 = runner_with(1).run(specs);
  const auto r2 = runner_with(2).run(specs);
  const auto r8 = runner_with(8).run(specs);
  ASSERT_EQ(r1.runs.size(), specs.size());
  ASSERT_EQ(r2.runs.size(), specs.size());
  ASSERT_EQ(r8.runs.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(r1.runs[i].ok()) << r1.runs[i].error;
    ASSERT_TRUE(r2.runs[i].ok()) << r2.runs[i].error;
    ASSERT_TRUE(r8.runs[i].ok()) << r8.runs[i].error;
    expect_identical(r1.runs[i].result, r2.runs[i].result);
    expect_identical(r1.runs[i].result, r8.runs[i].result);
  }
}

TEST(Runner, PreservesSubmissionOrder) {
  const auto specs = mixed_batch();
  const auto batch = runner_with(8).run(specs);
  ASSERT_EQ(batch.runs.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(batch.runs[i].label, specs[i].label);
    EXPECT_EQ(batch.runs[i].result.policy, specs[i].policy_name);
  }
}

TEST(Runner, SpecFailureDoesNotPoisonBatch) {
  auto specs = mixed_batch();
  // Sabotage one spec in the middle: an unknown benchmark throws inside the
  // workload builder on a worker thread.
  specs[2].workload = [](Simulation& s) {
    s.add_benchmark("no-such-benchmark", 4);
  };
  specs[2].label = "poisoned";
  const auto batch = runner_with(4).run(specs);
  ASSERT_EQ(batch.runs.size(), specs.size());
  EXPECT_FALSE(batch.runs[2].ok());
  EXPECT_FALSE(batch.runs[2].error.empty());
  EXPECT_EQ(batch.summary.failed, 1u);
  // Every other spec still succeeded, with the expected results.
  const auto clean = runner_with(1).run(mixed_batch());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(batch.runs[i].ok()) << batch.runs[i].error;
    expect_identical(batch.runs[i].result, clean.runs[i].result);
  }
}

TEST(Runner, EmptyBatch) {
  const auto batch = runner_with(4).run({});
  EXPECT_TRUE(batch.runs.empty());
  EXPECT_EQ(batch.summary.total, 0u);
  EXPECT_EQ(batch.summary.failed, 0u);
}

TEST(Runner, BatchSummaryAccounting) {
  const auto specs = mixed_batch();
  const auto batch = runner_with(2).run(specs);
  EXPECT_EQ(batch.summary.total, specs.size());
  EXPECT_EQ(batch.summary.failed, 0u);
  EXPECT_EQ(batch.summary.threads, 2);
  EXPECT_GT(batch.summary.wall_ms, 0.0);
  // Sum of per-run wall-clock is at least the batch wall-clock divided by
  // the worker count (work conservation).
  EXPECT_GE(batch.summary.cpu_ms, 0.0);
  for (const auto& r : batch.runs) EXPECT_GT(r.wall_ms, 0.0);
}

TEST(Runner, DefaultThreadsHonorsSbJobsEnv) {
  ::setenv("SB_JOBS", "3", 1);
  EXPECT_EQ(ExperimentRunner::default_threads(), 3);
  EXPECT_EQ(ExperimentRunner().threads(), 3);
  // Explicit config wins over the environment.
  EXPECT_EQ(runner_with(5).threads(), 5);
  ::setenv("SB_JOBS", "not-a-number", 1);
  EXPECT_GE(ExperimentRunner::default_threads(), 1);
  ::unsetenv("SB_JOBS");
  EXPECT_GE(ExperimentRunner::default_threads(), 1);
}

// --- Seed-derivation regression -------------------------------------------
// The CSV golden figures were produced with replica r of base seed B running
// at seed B + r * 0x9e3779b9. Parallelization must never change this
// schedule; pin it exactly.

TEST(Runner, ReplicaSeedScheduleIsPinned) {
  EXPECT_EQ(replica_seed(1234, 0), 1234ULL);
  EXPECT_EQ(replica_seed(1234, 1), 1234ULL + 0x9e3779b9ULL);
  EXPECT_EQ(replica_seed(1234, 2), 1234ULL + 2 * 0x9e3779b9ULL);
  EXPECT_EQ(replica_seed(1234, 7), 1234ULL + 7 * 0x9e3779b9ULL);
  EXPECT_EQ(replica_seed(0, 3), 3 * 0x9e3779b9ULL);
  // Concrete pinned values (would catch a stride or width change).
  EXPECT_EQ(replica_seed(1234, 1), 0x9e377e8bULL);
  EXPECT_EQ(replica_seed(0xffffffffffffffffULL, 1),
            0x9e3779b8ULL);  // wraps mod 2^64
  static_assert(replica_seed(42, 4) == 42 + 4 * 0x9e3779b9ULL);
}

TEST(Runner, RunReplicatedUsesPinnedSeedSchedule) {
  // run_replicated (now parallel) must equal running each replica manually
  // with the pinned schedule through a single-threaded runner.
  const auto platform = arch::Platform::quad_heterogeneous();
  SimulationConfig cfg;
  cfg.duration = milliseconds(60);
  cfg.seed = 777;
  const WorkloadBuilder workload = [](Simulation& s) {
    s.add_benchmark("bodytrack", 4);
  };
  const auto results =
      run_replicated(platform, cfg, workload, vanilla_factory(), 3);
  ASSERT_EQ(results.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    SimulationConfig manual = cfg;
    manual.seed = replica_seed(cfg.seed, r);
    Simulation sim(platform, manual);
    sim.set_balancer(vanilla_factory()(sim));
    workload(sim);
    const auto expected = sim.run();
    expect_identical(results[static_cast<std::size_t>(r)], expected);
  }
}

TEST(Runner, RunSweepCrossProductOrderAndDeterminism) {
  const auto platform = arch::Platform::quad_heterogeneous();
  SimulationConfig cfg;
  cfg.duration = milliseconds(60);
  const std::vector<std::pair<std::string, WorkloadBuilder>> workloads = {
      {"swaptions", [](Simulation& s) { s.add_benchmark("swaptions", 4); }},
      {"canneal", [](Simulation& s) { s.add_benchmark("canneal", 4); }},
  };
  const std::vector<std::pair<std::string, BalancerFactory>> policies = {
      {"vanilla", vanilla_factory()},
      {"gts", policy_factory("gts")},
  };
  const auto a =
      run_sweep(platform, cfg, workloads, policies, 2, runner_with(1));
  const auto b =
      run_sweep(platform, cfg, workloads, policies, 2, runner_with(8));
  ASSERT_EQ(a.runs.size(), 8u);  // 2 workloads x 2 policies x 2 replicas
  ASSERT_EQ(b.runs.size(), 8u);
  // Workload-major, then policy, then replica.
  EXPECT_EQ(a.runs[0].label, "swaptions/vanilla#0");
  EXPECT_EQ(a.runs[1].label, "swaptions/vanilla#1");
  EXPECT_EQ(a.runs[2].label, "swaptions/gts#0");
  EXPECT_EQ(a.runs[4].label, "canneal/vanilla#0");
  EXPECT_EQ(a.runs[7].label, "canneal/gts#1");
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    ASSERT_TRUE(a.runs[i].ok()) << a.runs[i].error;
    ASSERT_TRUE(b.runs[i].ok()) << b.runs[i].error;
    EXPECT_EQ(a.runs[i].label, b.runs[i].label);
    expect_identical(a.runs[i].result, b.runs[i].result);
  }
  // Replicas really differ (the seed schedule is applied).
  EXPECT_NE(a.runs[0].result.instructions, a.runs[1].result.instructions);
  EXPECT_THROW(run_sweep(platform, cfg, workloads, policies, 0),
               std::invalid_argument);
}

TEST(Runner, ComparePoliciesMatchesManualSequentialRuns) {
  // compare_policies is now parallel internally; it must still match
  // building each simulation by hand on the same seed.
  const auto platform = arch::Platform::quad_heterogeneous();
  SimulationConfig cfg;
  cfg.duration = milliseconds(60);
  const WorkloadBuilder workload = [](Simulation& s) {
    s.add_benchmark("vips", 3);
  };
  const auto runs = compare_policies(
      platform, cfg, workload,
      {{"vanilla", vanilla_factory()}, {"gts", policy_factory("gts")}});
  ASSERT_EQ(runs.size(), 2u);
  const std::vector<BalancerFactory> factories = {vanilla_factory(),
                                                  policy_factory("gts")};
  for (std::size_t i = 0; i < factories.size(); ++i) {
    Simulation sim(platform, cfg);
    sim.set_balancer(factories[i](sim));
    workload(sim);
    const auto expected = sim.run();
    expect_identical(runs[i].result, expected);
  }
}

}  // namespace
}  // namespace sb::sim
