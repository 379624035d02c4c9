// Defense-layer behaviour: plausibility screens, outlier rejection, stale
// fallback, neutral-prior escalation, health tracking and policy-level
// degraded mode.
#include <gtest/gtest.h>

#include <vector>

#include "arch/platform.h"
#include "core/sensing.h"
#include "core/smart_balance.h"
#include "fault/fault_plan.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace sb::core {
namespace {

os::EpochSample good_sample(ThreadId tid, CoreId core) {
  os::EpochSample s;
  s.tid = tid;
  s.core = core;
  s.counters.inst_total = 1'000'000;
  s.counters.cy_busy = 2'000'000;
  s.counters.cy_idle = 500'000;
  s.counters.inst_mem = 300'000;
  s.counters.inst_branch = 100'000;
  s.counters.l1d_access = 290'000;
  s.counters.l1d_miss = 9'000;
  s.energy_j = 0.02;
  s.runtime = milliseconds(50);
  s.util = 0.8;
  return s;
}

class DefenseTest : public ::testing::Test {
 protected:
  /// Noise- and smoothing-free sensing, so every verdict is exact.
  SensingSubsystem quiet_sensing(bool defended) const {
    SensingSubsystem::Config cfg;
    cfg.counter_noise_sigma = 0;
    cfg.energy_noise_sigma = 0;
    cfg.smoothing = 0;
    return SensingSubsystem(platform_, cfg, Rng(1), defended);
  }

  arch::Platform platform_ = arch::Platform::quad_heterogeneous();
};

TEST_F(DefenseTest, DefensesOffPassesImplausibleDataThrough) {
  SensingSubsystem sensing = quiet_sensing(false);
  auto s = good_sample(1, 0);
  s.counters.inst_total = perf::HpcCounters::k32BitCeiling;  // wrap artefact
  const auto obs = sensing.observe({s});
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_TRUE(obs[0].measured);
  EXPECT_GT(obs[0].ipc, 100.0) << "undefended path must not filter";
  EXPECT_EQ(sensing.health().implausible_rejected, 0u);
}

TEST_F(DefenseTest, WrapArtefactRejectedAndStaleServed) {
  SensingSubsystem sensing = quiet_sensing(true);
  const auto good = sensing.observe({good_sample(1, 0)});
  ASSERT_TRUE(good[0].measured);
  const double good_ipc = good[0].ipc;

  auto bad = good_sample(1, 0);
  bad.counters.inst_total = perf::HpcCounters::k32BitCeiling;
  const auto obs = sensing.observe({bad});
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(sensing.health().implausible_rejected, 1u);
  EXPECT_EQ(sensing.health().stale_served, 1u);
  // Served observation is the cached good one, not the wrapped garbage.
  EXPECT_NEAR(obs[0].ipc, good_ipc, 1e-9);
}

TEST_F(DefenseTest, ImpossibleCycleRateRejected) {
  SensingSubsystem sensing = quiet_sensing(true);
  auto s = good_sample(1, 0);
  // 50 ms runtime cannot hold 4e9 cycles on any clock below 8 GHz; both
  // fields stay below the 32-bit ceiling so only the rate guard can fire.
  s.counters.cy_busy = 4'000'000'000ull;
  s.counters.inst_total = 1'600'000'000ull;  // keeps IPC plausible (0.4)
  (void)sensing.observe({s});
  EXPECT_EQ(sensing.health().implausible_rejected, 1u);
}

TEST_F(DefenseTest, StuckPowerRailRejected) {
  SensingSubsystem sensing = quiet_sensing(true);
  auto s = good_sample(1, 0);
  s.energy_j = 0.0;  // full epoch of execution, zero joules: dead rail
  (void)sensing.observe({s});
  EXPECT_EQ(sensing.health().implausible_rejected, 1u);
}

TEST_F(DefenseTest, OutlierRejectedAgainstMedianHistory) {
  SensingSubsystem sensing = quiet_sensing(true);
  for (int e = 0; e < 4; ++e) {
    const auto obs = sensing.observe({good_sample(1, 0)});
    EXPECT_TRUE(obs[0].measured);
  }
  EXPECT_EQ(sensing.health().outliers_rejected, 0u);

  // 20x the established throughput, but inside the physical envelope
  // (IPC 8 < ipc_max): only the outlier screen can catch it.
  auto burst = good_sample(1, 0);
  burst.counters.inst_total = 20'000'000;
  const auto obs = sensing.observe({burst});
  EXPECT_EQ(sensing.health().outliers_rejected, 1u);
  EXPECT_EQ(sensing.health().stale_served, 1u);
  EXPECT_LT(obs[0].ipc, 1.0) << "served from cache, not the burst";
}

TEST_F(DefenseTest, NeutralPriorAfterMaxStaleEpochs) {
  SensingSubsystem sensing = quiet_sensing(true);
  (void)sensing.observe({good_sample(1, 0)});

  auto blackout = good_sample(1, 0);
  blackout.counters.reset();  // ran, but sensing read zeros
  // The stale window is 8 epochs (sensing.cc).
  for (int e = 0; e < 8; ++e) {
    const auto obs = sensing.observe({blackout});
    EXPECT_TRUE(obs[0].measured) << "within stale window, serve cache";
  }
  const auto obs = sensing.observe({blackout});
  EXPECT_FALSE(obs[0].measured) << "past the window, neutral prior";
  EXPECT_EQ(obs[0].instructions, 0u);
  EXPECT_EQ(sensing.health().neutral_served, 1u);
  EXPECT_EQ(sensing.health().stale_served, 8u);
}

TEST_F(DefenseTest, HealthyFractionTracksConfidenceDecay) {
  SensingSubsystem sensing = quiet_sensing(true);
  auto good = good_sample(1, 0);
  auto bad = good_sample(2, 1);
  bad.counters.inst_total = perf::HpcCounters::k32BitCeiling;
  (void)sensing.observe({good, bad});
  // One rejection: confidence 0.7 >= 0.5, both threads still healthy.
  EXPECT_DOUBLE_EQ(sensing.health().healthy_fraction, 1.0);
  (void)sensing.observe({good, bad});
  // Two rejections: 0.49 < 0.5 — thread 2 is now unhealthy.
  EXPECT_DOUBLE_EQ(sensing.health().healthy_fraction, 0.5);
}

TEST(Degradation, PolicyFallsBackUnderTotalBlackout) {
  sim::SimulationConfig cfg;
  cfg.duration = milliseconds(400);
  sim::Simulation sim(arch::Platform::quad_heterogeneous(), cfg);
  sim.add_benchmark("ferret", 4);

  core::SmartBalanceConfig sc;
  fault::FaultPlan plan;
  plan.set({fault::FaultClass::kCoreBlackout, 1.0, 1.0, 1});
  sc.fault_plan = plan;
  sim.set_balancer(sim::smartbalance_factory(sc)(sim));
  const auto r = sim.run();

  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.faults_detected, 0u);
  EXPECT_GT(r.degraded_passes, 0u) << "all sensors dark: must degrade";
  EXPECT_LT(r.healthy_fraction, 0.5);
  EXPECT_GT(r.instructions, 0u) << "the system keeps running regardless";
}

TEST(Degradation, RejectedMigrationsAreCountedAndHarmless) {
  sim::SimulationConfig cfg;
  cfg.duration = milliseconds(400);
  sim::Simulation sim(arch::Platform::quad_heterogeneous(), cfg);
  sim.add_benchmark("ferret", 4);

  core::SmartBalanceConfig sc;
  fault::FaultPlan plan;
  plan.set({fault::FaultClass::kMigrationReject, 1.0, 1.0, 1});
  sc.fault_plan = plan;
  sim.set_balancer(sim::smartbalance_factory(sc)(sim));
  const auto r = sim.run();

  EXPECT_GT(r.migrations_rejected, 0u);
  EXPECT_EQ(r.migrations, 0u) << "every balancer migration failed";
  EXPECT_GT(r.instructions, 0u);
}

TEST(Degradation, DeferredMigrationsLandNextEpoch) {
  sim::SimulationConfig cfg;
  cfg.duration = milliseconds(400);
  sim::Simulation sim(arch::Platform::quad_heterogeneous(), cfg);
  sim.add_benchmark("ferret", 4);

  core::SmartBalanceConfig sc;
  fault::FaultPlan plan;
  plan.set({fault::FaultClass::kMigrationDelay, 1.0, 1.0, 1});
  sc.fault_plan = plan;
  sim.set_balancer(sim::smartbalance_factory(sc)(sim));
  const auto r = sim.run();

  EXPECT_GT(r.migrations_deferred, 0u);
  EXPECT_GT(r.instructions, 0u);
}

TEST(Degradation, DefensesRecoverEfficiencyUnderFaults) {
  // The headline property, in miniature: under a moderate uniform fault
  // rate, the defended policy must do at least as well as the undefended
  // one (and both must keep running).
  sim::SimulationConfig cfg;
  cfg.duration = milliseconds(400);

  auto run_arm = [&](core::SmartBalanceConfig::Defenses defenses) {
    sim::Simulation sim(arch::Platform::octa_big_little(), cfg);
    sim.add_benchmark("bodytrack", 8);
    core::SmartBalanceConfig sc;
    sc.fault_plan = fault::FaultPlan::uniform(0.08);
    sc.defenses = defenses;
    sim.set_balancer(sim::smartbalance_factory(sc)(sim));
    return sim.run();
  };

  const auto defended = run_arm(core::SmartBalanceConfig::Defenses::kAuto);
  const auto undefended = run_arm(core::SmartBalanceConfig::Defenses::kOff);
  EXPECT_GT(defended.faults_detected, 0u);
  EXPECT_EQ(undefended.faults_detected, 0u);
  EXPECT_GT(defended.ips_per_watt, 0.95 * undefended.ips_per_watt);
}

}  // namespace
}  // namespace sb::core
