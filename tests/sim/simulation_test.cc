#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "os/vanilla_balancer.h"

namespace sb::sim {
namespace {

SimulationConfig quick_cfg(TimeNs duration = milliseconds(120)) {
  SimulationConfig cfg;
  cfg.duration = duration;
  cfg.label = "test";
  return cfg;
}

TEST(Simulation, MetricsInternallyConsistent) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  s.add_benchmark("ferret", 4);
  const auto r = s.run();

  EXPECT_EQ(r.simulated, milliseconds(120));
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_NEAR(r.ips, static_cast<double>(r.instructions) / 0.12, 1.0);
  EXPECT_NEAR(r.watts, r.energy_j / 0.12, 1e-9);
  EXPECT_NEAR(r.ips_per_watt, static_cast<double>(r.instructions) / r.energy_j,
              1.0);

  // Per-core sums equal the totals.
  std::uint64_t core_insts = 0;
  double core_energy = 0;
  for (const auto& c : r.cores) {
    core_insts += c.instructions;
    core_energy += c.energy_j;
  }
  EXPECT_EQ(core_insts, r.instructions);
  EXPECT_NEAR(core_energy, r.energy_j, 1e-9);

  // Per-thread sums equal totals too.
  std::uint64_t thread_insts = 0;
  for (const auto& t : r.threads) thread_insts += t.instructions;
  EXPECT_EQ(thread_insts, r.instructions);
  EXPECT_EQ(r.threads.size(), 4u);
}

TEST(Simulation, RunToCompletionStopsEarly) {
  auto cfg = quick_cfg(seconds(5));
  cfg.run_to_completion = true;
  Simulation s(arch::Platform::quad_heterogeneous(), cfg);
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  workload::ThreadBehavior tb;
  tb.name = "short";
  workload::WorkloadProfile p;
  tb.phases.push_back({p, 10'000'000});
  tb.total_instructions = 2'000'000;
  s.add_thread(tb);
  const auto r = s.run();
  EXPECT_LT(r.simulated, milliseconds(200));
  ASSERT_EQ(r.threads.size(), 1u);
  EXPECT_TRUE(r.threads[0].completed);
  EXPECT_LT(r.threads[0].completion_time, r.simulated + 1);
}

TEST(Simulation, RunTwiceThrows) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  s.add_benchmark("vips", 1);
  s.run();
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(Simulation, AddMixSpawnsAllMembers) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  s.add_mix(6, 2);  // 3 members × 2
  EXPECT_EQ(s.kernel().num_tasks(), 6u);
}

TEST(Simulation, DeterministicForSeed) {
  auto once = [] {
    Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
    s.set_balancer(std::make_unique<os::VanillaBalancer>());
    s.add_benchmark("bodytrack", 4);
    return s.run();
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Simulation, SeedChangesOutcome) {
  auto once = [](std::uint64_t seed) {
    auto cfg = quick_cfg();
    cfg.seed = seed;
    Simulation s(arch::Platform::quad_heterogeneous(), cfg);
    s.set_balancer(std::make_unique<os::VanillaBalancer>());
    s.add_benchmark("bodytrack", 4);
    return s.run();
  };
  EXPECT_NE(once(1).instructions, once(2).instructions);
}

TEST(Simulation, PrintResultMentionsHeadlineNumbers) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  s.add_benchmark("dedup", 2);
  const auto r = s.run();
  std::ostringstream os;
  print_result(os, r);
  EXPECT_NE(os.str().find("MIPS/W"), std::string::npos);
  EXPECT_NE(os.str().find("Huge"), std::string::npos);
}

TEST(Simulation, EfficiencyRatio) {
  SimulationResult a, b;
  a.ips_per_watt = 150;
  b.ips_per_watt = 100;
  EXPECT_DOUBLE_EQ(efficiency_ratio(a, b), 1.5);
  b.ips_per_watt = 0;
  EXPECT_THROW(efficiency_ratio(a, b), std::invalid_argument);
}

TEST(Simulation, UnknownBenchmarkThrows) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  EXPECT_THROW(s.add_benchmark("not-a-benchmark", 2), std::out_of_range);
}

// --- Service mode (the fleet layer's incremental driving) ---

TEST(Simulation, ServiceModeMatchesBatchRunExactly) {
  auto batch = [] {
    Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
    s.set_balancer(std::make_unique<os::VanillaBalancer>());
    s.add_benchmark("ferret", 4);
    return s.run();
  };
  auto service = [](TimeNs chunk) {
    Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
    s.set_balancer(std::make_unique<os::VanillaBalancer>());
    s.add_benchmark("ferret", 4);
    s.begin_service();
    for (TimeNs t = 0; t < milliseconds(120); t += chunk) {
      s.advance_service(std::min(chunk, milliseconds(120) - t));
    }
    return s.finish_service();
  };
  // One advance_service over the whole window replays batch run() exactly.
  const auto a = batch();
  const auto b = service(milliseconds(120));
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.simulated, b.simulated);
  // Chunk boundaries split accounting segments, so a different quantum
  // shifts per-segment rounding — but for a FIXED quantum the results are
  // bit-reproducible (the fleet determinism contract) and the physics
  // stays within rounding noise of the batch run.
  for (const TimeNs chunk : {milliseconds(5), milliseconds(7)}) {
    const auto c = service(chunk);
    const auto d = service(chunk);
    EXPECT_EQ(c.instructions, d.instructions) << "chunk=" << chunk;
    EXPECT_DOUBLE_EQ(c.energy_j, d.energy_j) << "chunk=" << chunk;
    EXPECT_NEAR(static_cast<double>(c.instructions),
                static_cast<double>(a.instructions),
                0.01 * static_cast<double>(a.instructions))
        << "chunk=" << chunk;
    EXPECT_NEAR(c.energy_j, a.energy_j, 0.01 * a.energy_j)
        << "chunk=" << chunk;
  }
}

TEST(Simulation, AdmitBenchmarkMidServiceForksAndCapsInstructions) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  s.begin_service();
  s.advance_service(milliseconds(10));
  const auto tids = s.admit_benchmark("blackscholes", 2, 1'000'000);
  ASSERT_EQ(tids.size(), 2u);
  for (const ThreadId tid : tids) {
    EXPECT_EQ(s.kernel().task(tid).arrived_at, milliseconds(10));
  }
  s.advance_service(milliseconds(110));
  const auto r = s.finish_service();
  // The per-thread budget override makes service jobs terminate.
  for (const ThreadId tid : tids) {
    EXPECT_FALSE(s.kernel().alive(tid));
    const os::TaskRecord t = s.kernel().record(tid);
    EXPECT_TRUE(t.exited());
    EXPECT_EQ(t.lifetime_insts, 1'000'000u);
  }
  EXPECT_EQ(r.simulated, milliseconds(120));
}

TEST(Simulation, ServiceModeLifecycleGuards) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  EXPECT_THROW(s.advance_service(milliseconds(1)), std::logic_error);
  EXPECT_THROW(s.finish_service(), std::logic_error);
  s.begin_service();
  EXPECT_THROW(s.begin_service(), std::logic_error);
  EXPECT_THROW(s.run(), std::logic_error);
  s.finish_service();
  EXPECT_THROW(s.finish_service(), std::logic_error);
}

}  // namespace
}  // namespace sb::sim
