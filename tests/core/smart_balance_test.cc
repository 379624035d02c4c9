#include "core/smart_balance.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "arch/platform.h"
#include "core/trainer.h"
#include "os/kernel.h"
#include "os/vanilla_balancer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "sim/experiment.h"
#include "sim/simulation.h"
#include "workload/benchmarks.h"

namespace sb::core {
namespace {

class SmartBalanceTest : public ::testing::Test {
 protected:
  SmartBalanceTest()
      : platform_(arch::Platform::quad_heterogeneous()),
        perf_(platform_),
        power_(platform_, perf_) {}

  PredictorModel trained_model() {
    PredictorTrainer trainer(perf_, power_);
    return trainer.train(PredictorTrainer::default_training_profiles());
  }

  std::unique_ptr<SmartBalancePolicy> make_policy(
      SmartBalanceConfig cfg = SmartBalanceConfig()) {
    return std::make_unique<SmartBalancePolicy>(platform_, trained_model(),
                                                cfg);
  }

  void add_workload(os::Kernel& k, const std::string& name, int threads,
                    std::uint64_t seed = 5) {
    Rng rng(seed);
    for (auto& tb : workload::BenchmarkLibrary::get(name).spawn(threads, rng)) {
      k.fork(std::move(tb));
    }
  }

  double run_efficiency(std::unique_ptr<os::LoadBalancer> balancer) {
    os::Kernel k(platform_, perf_, power_);
    k.set_balancer(std::move(balancer));
    add_workload(k, "canneal", 2);
    add_workload(k, "swaptions", 2);
    k.run_for(milliseconds(600));
    return static_cast<double>(k.total_instructions()) /
           k.energy().total_joules();
  }

  arch::Platform platform_;
  perf::PerfModel perf_;
  power::PowerModel power_;
};

TEST_F(SmartBalanceTest, BeatsVanillaOnDiverseWorkload) {
  const double vanilla =
      run_efficiency(std::make_unique<os::VanillaBalancer>());
  const double smart = run_efficiency(make_policy());
  EXPECT_GT(smart, 1.2 * vanilla)
      << "diverse canneal+swaptions workload must show a clear gain";
}

TEST_F(SmartBalanceTest, EpochIntervalIsConfigured) {
  SmartBalanceConfig cfg;
  cfg.epoch = milliseconds(45);
  const auto p = make_policy(cfg);
  EXPECT_EQ(p->interval(), milliseconds(45));
  EXPECT_EQ(p->name(), "smartbalance");
}

TEST_F(SmartBalanceTest, CollectsPhaseOverheadStats) {
  os::Kernel k(platform_, perf_, power_);
  auto policy = make_policy();
  auto* pp = policy.get();
  k.set_balancer(std::move(policy));
  add_workload(k, "bodytrack", 4);
  k.run_for(milliseconds(300));
  EXPECT_GE(pp->passes(), 4u);
  EXPECT_GT(pp->sense_ns().count(), 0u);
  EXPECT_GT(pp->predict_ns().count(), 0u);
  EXPECT_GT(pp->optimize_ns().count(), 0u);
  EXPECT_GT(pp->optimize_ns().mean(), 0.0);
  // On a quad-core the whole pass must be far below the 60 ms epoch (<1%,
  // paper §6.3) — allow 10% here for sanitizer/debug builds.
  const double total_us = (pp->sense_ns().mean() + pp->predict_ns().mean() +
                           pp->optimize_ns().mean()) /
                          1e3;
  EXPECT_LT(total_us, 6000.0);
}

TEST_F(SmartBalanceTest, BuildsFullCharacterizationMatrices) {
  os::Kernel k(platform_, perf_, power_);
  auto policy = make_policy();
  auto* pp = policy.get();
  k.set_balancer(std::move(policy));
  add_workload(k, "ferret", 6);
  k.run_for(milliseconds(130));
  const auto& mx = pp->last_matrices();
  EXPECT_EQ(mx.num_threads(), 6u);
  EXPECT_EQ(mx.num_cores(), 4u);
  for (std::size_t i = 0; i < mx.num_threads(); ++i) {
    for (CoreId c = 0; c < static_cast<CoreId>(mx.num_cores()); ++c) {
      EXPECT_GT(mx.gips(i, c), 0.0) << i << "," << c;
      EXPECT_GT(mx.watts(i, c), 0.0) << i << "," << c;
    }
  }
}

TEST_F(SmartBalanceTest, ReallocatesAwayFromInefficientPlacement) {
  // One compute-hungry and one memory-bound thread, deliberately placed so
  // the Huge core burns watts on pointer chasing. SmartBalance must (a)
  // take canneal off the Huge core — the worst possible IPS/W pairing —
  // and (b) beat the do-nothing policy's global efficiency.
  auto run = [&](bool smart) {
    os::Kernel k(platform_, perf_, power_);
    if (smart) {
      k.set_balancer(make_policy());
    } else {
      k.set_balancer(std::make_unique<os::NullBalancer>());
    }
    Rng rng(3);
    auto compute = workload::BenchmarkLibrary::get("swaptions").spawn(1, rng)[0];
    auto memory = workload::BenchmarkLibrary::get("canneal").spawn(1, rng)[0];
    k.fork_on(std::move(memory), 0);   // canneal on Huge
    k.fork_on(std::move(compute), 3);  // swaptions on Small
    k.run_for(milliseconds(400));
    if (smart) {
      EXPECT_NE(k.task(0).cpu, 0) << "canneal must leave the Huge core";
    }
    return static_cast<double>(k.total_instructions()) /
           k.energy().total_joules();
  };
  const double pinned = run(false);
  const double smart = run(true);
  EXPECT_GT(smart, 1.5 * pinned);
}

TEST_F(SmartBalanceTest, MigrationCooldownLimitsChurn) {
  SmartBalanceConfig cfg;
  cfg.migration_cooldown_epochs = 2;
  os::Kernel k(platform_, perf_, power_);
  k.set_balancer(make_policy(cfg));
  add_workload(k, "x264_H_crew", 4);
  k.run_for(milliseconds(600));
  // 10 epochs × 4 threads: unbounded thrash would be ~40 migrations.
  EXPECT_LT(k.total_migrations(), 25u);
}

TEST_F(SmartBalanceTest, RespectsAffinityMasks) {
  os::Kernel k(platform_, perf_, power_);
  k.set_balancer(make_policy());
  Rng rng(4);
  auto tb = workload::BenchmarkLibrary::get("swaptions").spawn(1, rng)[0];
  const ThreadId t = k.fork_on(std::move(tb), 3);
  std::bitset<kMaxCores> mask;
  mask.set(3);
  k.set_cpus_allowed(t, mask);
  add_workload(k, "bodytrack", 3);
  k.run_for(milliseconds(300));
  EXPECT_EQ(k.task(t).cpu, 3) << "pinned thread must never be migrated";
}

TEST_F(SmartBalanceTest, HandlesEmptySystemGracefully) {
  os::Kernel k(platform_, perf_, power_);
  auto policy = make_policy();
  auto* pp = policy.get();
  k.set_balancer(std::move(policy));
  EXPECT_NO_THROW(k.run_for(milliseconds(200)));
  EXPECT_GE(pp->passes(), 2u);
}

TEST_F(SmartBalanceTest, SurvivesSensorFailureEpochs) {
  // Failure injection: the power-sensing path reports garbage (zero-energy
  // epochs via an all-virtual sensor bank plus an untrained power model
  // would be worst case; here we blast the counters with extreme noise).
  // The loop must neither crash nor livelock in migrations.
  SmartBalanceConfig cfg;
  cfg.sensing.counter_noise_sigma = 0.5;  // 50% per-counter noise
  cfg.sensing.energy_noise_sigma = 0.8;
  os::Kernel k(platform_, perf_, power_);
  k.set_balancer(make_policy(cfg));
  add_workload(k, "ferret", 6);
  EXPECT_NO_THROW(k.run_for(milliseconds(600)));
  EXPECT_GT(k.total_instructions(), 0u);
  // Hysteresis + cooldown keep churn bounded even under garbage sensing.
  EXPECT_LT(k.total_migrations(), 60u);
}

TEST_F(SmartBalanceTest, HandlesZeroPowerObservations) {
  // A sensor outage that reads zero joules must not produce NaN/inf in the
  // characterization (power floor clamps) nor crash the optimizer.
  SmartBalanceConfig cfg;
  cfg.power_sensor_cores.reset();  // every reading comes from Eq. 9
  os::Kernel k(platform_, perf_, power_);
  auto policy = std::make_unique<SmartBalancePolicy>(
      platform_, PredictorModel(platform_.num_types()), cfg);  // UNTRAINED
  k.set_balancer(std::move(policy));
  add_workload(k, "bodytrack", 4);
  EXPECT_NO_THROW(k.run_for(milliseconds(300)));
  EXPECT_GT(k.total_instructions(), 0u);
}

/// Pure throughput, as a user would write it: each core's time-shared
/// GIPS (the average over its threads).
class ThroughputObjective final : public BalanceObjective {
 public:
  double core_term(const CoreSums& s, CoreId /*core*/) const override {
    return s.nthreads == 0 ? 0.0 : s.gips / s.nthreads;
  }
  std::string name() const override { return "throughput"; }
};

TEST_F(SmartBalanceTest, CustomObjectiveIsUsed) {
  // A throughput objective should keep strong cores busier than the
  // efficiency objective would.
  os::Kernel k(platform_, perf_, power_);
  SmartBalanceConfig cfg;
  k.set_balancer(std::make_unique<SmartBalancePolicy>(
      platform_, trained_model(), cfg,
      std::make_unique<ThroughputObjective>()));
  add_workload(k, "blackscholes", 2);
  k.run_for(milliseconds(400));
  // Both threads should land on the two strongest cores (Huge+Big).
  for (ThreadId t : k.alive_threads()) {
    EXPECT_LE(k.task(t).cpu, 1) << "throughput goal prefers strong cores";
  }
}

TEST_F(SmartBalanceTest, DefaultObjectiveIsEq11) {
  // Without an objective the policy anneals the paper's Eq. 11 with every
  // ω_j = 1: the run is bit-identical to one given that objective
  // explicitly.
  auto run = [&](std::unique_ptr<BalanceObjective> objective) {
    os::Kernel k(platform_, perf_, power_);
    k.set_balancer(std::make_unique<SmartBalancePolicy>(
        platform_, trained_model(), SmartBalanceConfig(),
        std::move(objective)));
    add_workload(k, "canneal", 2);
    add_workload(k, "swaptions", 2);
    k.run_for(milliseconds(600));
    return std::make_tuple(k.total_instructions(), k.total_migrations(),
                           k.energy().total_joules());
  };
  const auto by_default = run(nullptr);
  EXPECT_EQ(by_default, run(std::make_unique<EnergyEfficiencyObjective>()));
  EXPECT_GT(std::get<1>(by_default), 0u)
      << "the objective must steer migrations";
}

TEST_F(SmartBalanceTest, DefensesSwitchTruthTable) {
  // kAuto defends exactly when the fault plan is non-empty; kOn and kOff
  // force either side. Undefended sensing never scores sensor health, so
  // the run reports every thread healthy even under faults.
  using D = SmartBalanceConfig::Defenses;
  struct Row {
    D defenses;
    bool clean;   // defended with an empty fault plan
    bool faulty;  // defended under noise:0.8:8
  };
  const Row rows[] = {
      {D::kAuto, false, true}, {D::kOn, true, true}, {D::kOff, false, false}};
  for (const Row& row : rows) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "defenses "
                                        << static_cast<int>(row.defenses)
                                        << (faults ? ", faults" : ", clean"));
      SmartBalanceConfig cfg;
      cfg.defenses = row.defenses;
      if (faults) cfg.fault_plan = fault::FaultPlan::parse("noise:0.8:8", 7);
      sim::SimulationConfig scfg;
      scfg.duration = milliseconds(600);
      sim::Simulation s(platform_, scfg);
      s.add_benchmark("canneal", 2);
      s.add_benchmark("swaptions", 2);
      s.set_balancer(sim::smartbalance_factory(cfg)(s));
      const auto* policy =
          dynamic_cast<const SmartBalancePolicy*>(s.kernel().balancer());
      ASSERT_NE(policy, nullptr);
      const bool defended = faults ? row.faulty : row.clean;
      EXPECT_EQ(policy->defenses_enabled(), defended);
      const sim::SimulationResult r = s.run();
      if (!defended) {
        EXPECT_EQ(r.healthy_fraction, 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace sb::core
