// End-to-end tests for the online adaptation loop (core/adapt.h) riding
// the full simulator: adaptation-off is bit-identical to the golden path,
// adaptation-on under injected power noise strictly reduces the audited
// mean |relative error| (the same scenario the sbaudit --diff ctest gate
// pins from the CLI), adapted exports stay byte-identical across
// --jobs=1/8, and the raw-vs-corrected residual columns behave.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "core/adapt.h"
#include "core/smart_balance.h"
#include "fault/fault_plan.h"
#include "mini_json.h"
#include "obs/audit_writer.h"
#include "obs/sink.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"

namespace sb::sim {
namespace {

SimulationConfig base_cfg() {
  SimulationConfig cfg;
  cfg.duration = milliseconds(600);
  cfg.seed = 1234;
  return cfg;
}

SimulationResult run_smart(SimulationConfig cfg,
                           core::SmartBalanceConfig sc = {}) {
  const auto platform = arch::Platform::quad_heterogeneous();
  Simulation s(platform, cfg);
  s.set_balancer(smartbalance_factory(sc)(s));
  s.add_mix(5, 2);  // the sbaudit --diff worked example's workload
  return s.run();
}

/// The noisy-sensing ablation arm: heavy multiplicative gaussian noise on
/// the power rails, defenses off so the polluted samples reach the
/// predictor — the regime online adaptation exists to repair.
core::SmartBalanceConfig noisy_sc() {
  core::SmartBalanceConfig sc;
  sc.fault_plan = fault::FaultPlan::parse("noise:0.8:8");
  sc.defenses = core::SmartBalanceConfig::Defenses::kOff;
  return sc;
}

double combined_mean_abs_err_pct(const obs::AuditSnapshot& a) {
  double gips = 0, power = 0;
  for (const auto& t : a.threads) {
    gips += std::abs(t.gips_err);
    power += std::abs(t.power_err);
  }
  const double n = static_cast<double>(a.threads.size());
  return 100.0 * 0.5 * (gips / n + power / n);
}

TEST(AdaptIntegration, AdaptationOffIsBitIdenticalToGoldenPath) {
  // A default-constructed Adaptation (and an explicitly parsed empty spec)
  // must not perturb a single simulated number.
  const SimulationResult plain = run_smart(base_cfg());
  core::SmartBalanceConfig sc;
  sc.adaptation = core::AdaptationConfig::parse("");
  const SimulationResult off = run_smart(base_cfg(), sc);
  EXPECT_EQ(plain.instructions, off.instructions);
  EXPECT_EQ(plain.migrations, off.migrations);
  EXPECT_DOUBLE_EQ(plain.ips_per_watt, off.ips_per_watt);
  EXPECT_DOUBLE_EQ(plain.energy_j, off.energy_j);
  EXPECT_EQ(off.adapt_joins, 0u);
  EXPECT_EQ(off.adapt_rls_updates, 0u);
}

TEST(AdaptIntegration, RlsReducesAuditedErrorUnderPowerNoise) {
  // The in-process twin of the sbaudit --diff --require-improvement ctest
  // gate: same platform, workload, duration, seed and fault plan. The sim
  // is deterministic, so this is an exact regression pin, not a flaky
  // statistical test.
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(3000);
  cfg.obs.audit = true;

  const SimulationResult off = run_smart(cfg, noisy_sc());
  core::SmartBalanceConfig adapted = noisy_sc();
  adapted.adaptation = core::AdaptationConfig::parse("rls");
  const SimulationResult on = run_smart(cfg, adapted);

  ASSERT_NE(off.obs, nullptr);
  ASSERT_NE(on.obs, nullptr);
  ASSERT_GT(off.obs->audit.threads.size(), 50u);
  ASSERT_GT(on.obs->audit.threads.size(), 50u);
  EXPECT_GT(on.adapt_joins, 0u);
  EXPECT_GT(on.adapt_rls_updates, 0u);

  const double err_off = combined_mean_abs_err_pct(off.obs->audit);
  const double err_on = combined_mean_abs_err_pct(on.obs->audit);
  EXPECT_LT(err_on, err_off)
      << "online RLS did not improve the audited forecasts: off="
      << err_off << "% on=" << err_on << "%";
}

TEST(AdaptIntegration, AdaptCountersRideTheJsonReport) {
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(3000);
  cfg.obs.audit = true;
  core::SmartBalanceConfig sc = noisy_sc();
  sc.adaptation = core::AdaptationConfig::parse("bias,rls");
  const SimulationResult r = run_smart(cfg, sc);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_GT(r.adapt_joins, 0u);

  const auto doc = testjson::parse(to_json(r));
  ASSERT_TRUE(doc.contains("audit"));
  const auto& audit = doc.at("audit");
  ASSERT_TRUE(audit.contains("adapt"));
  EXPECT_EQ(audit.at("adapt").at("joins").num(),
            static_cast<double>(r.adapt_joins));
  EXPECT_EQ(audit.at("adapt").at("rls_updates").num(),
            static_cast<double>(r.adapt_rls_updates));
  EXPECT_EQ(audit.at("adapt").at("cov_resets").num(),
            static_cast<double>(r.adapt_cov_resets));
}

TEST(AdaptIntegration, AdapterIsIndependentOfTheAuditRecorder) {
  // The audit recorder and the adapter read the same joined forecasts, but
  // only the adapter feeds back: attaching the audit must not move a single
  // adaptation counter or simulated number.
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(3000);
  core::SmartBalanceConfig sc = noisy_sc();
  sc.adaptation = core::AdaptationConfig::parse("bias,rls");
  const SimulationResult off = run_smart(cfg, sc);
  cfg.obs.audit = true;
  const SimulationResult on = run_smart(cfg, sc);
  ASSERT_NE(on.obs, nullptr);
  ASSERT_GT(on.obs->audit.joined, 0u);
  EXPECT_GT(off.adapt_rls_updates, 0u);
  EXPECT_EQ(on.adapt_joins, off.adapt_joins);
  EXPECT_EQ(on.adapt_rls_updates, off.adapt_rls_updates);
  EXPECT_EQ(on.adapt_cov_resets, off.adapt_cov_resets);
  EXPECT_EQ(on.ips_per_watt, off.ips_per_watt);
  EXPECT_EQ(on.migrations, off.migrations);
}

TEST(AdaptIntegration, RawAndCorrectedResidualsSplitExactlyWithBias) {
  // With adaptation off the raw columns ARE the corrected columns, byte
  // for byte; with the bias tier on they must diverge on a noisy run
  // (the corrector is actually moving the forecasts).
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(3000);
  cfg.obs.audit = true;

  const SimulationResult off = run_smart(cfg, noisy_sc());
  ASSERT_NE(off.obs, nullptr);
  for (const auto& t : off.obs->audit.threads) {
    EXPECT_EQ(t.raw_gips_err, t.gips_err);
    EXPECT_EQ(t.raw_power_err, t.power_err);
  }

  core::SmartBalanceConfig sc = noisy_sc();
  sc.adaptation = core::AdaptationConfig::parse("bias");
  const SimulationResult on = run_smart(cfg, sc);
  ASSERT_NE(on.obs, nullptr);
  int diverged = 0;
  for (const auto& t : on.obs->audit.threads) {
    if (t.raw_gips_err != t.gips_err || t.raw_power_err != t.power_err) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0);
}

TEST(AdaptIntegration, AdaptedExportIsByteIdenticalAcrossJobs) {
  // Same invariant the audit recorder pins, but with the full adaptation
  // stack (bias + RLS + drift resets) active: everything is a pure
  // function of sim state, so the merged export cannot depend on how many
  // worker threads ran the batch.
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(300);
  cfg.obs.audit = true;
  core::SmartBalanceConfig sc = noisy_sc();
  sc.adaptation = core::AdaptationConfig::parse("bias,rls");

  std::vector<ExperimentSpec> specs;
  for (const std::string bench : {"IMB_HTHI", "IMB_MTMI", "bodytrack"}) {
    for (const int per : {2, 4}) {
      ExperimentSpec spec;
      spec.platform = arch::Platform::quad_heterogeneous();
      spec.cfg = cfg;
      spec.workload = [bench, per](Simulation& s) {
        s.add_benchmark(bench, per);
      };
      spec.policy = smartbalance_factory(sc);
      spec.label = bench + "/adapted/" + std::to_string(per);
      specs.push_back(std::move(spec));
    }
  }

  auto merged = [&](int threads) {
    ExperimentRunner::Config rc;
    rc.threads = threads;
    const BatchResult batch = ExperimentRunner(rc).run(specs);
    std::vector<const obs::RunObs*> runs;
    for (const auto& r : batch.runs) {
      EXPECT_TRUE(r.ok()) << r.error;
      if (r.result.obs) runs.push_back(r.result.obs.get());
    }
    std::ostringstream os;
    obs::write_audit(os, runs);
    return os.str();
  };

  const std::string seq = merged(1);
  const std::string par = merged(8);
  EXPECT_EQ(seq, par);
  EXPECT_NE(seq.find("#summary runs=6"), std::string::npos);
}

}  // namespace
}  // namespace sb::sim
