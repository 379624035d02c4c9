// End-to-end prediction-audit flight recorder: an audited SmartBalance run
// is bit-identical to the golden path, its export is a byte-level
// deterministic function of the simulated runs (invariant across --jobs),
// its online residuals agree with the Fig. 6 offline prediction-error
// methodology, and the drift detector fires under injected sensor noise but
// never on a clean run.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "core/smart_balance.h"
#include "core/trainer.h"
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
  s.add_mix(5, 1);  // 4-core-type PARSEC mix, the sbaudit worked example
  return s.run();
}

TEST(AuditIntegration, RecorderIsReadOnly) {
  // The flight recorder must not change a single simulated number.
  const SimulationResult plain = run_smart(base_cfg());
  SimulationConfig cfg = base_cfg();
  cfg.obs.audit = true;
  const SimulationResult audited = run_smart(cfg);
  EXPECT_EQ(plain.instructions, audited.instructions);
  EXPECT_EQ(plain.migrations, audited.migrations);
  EXPECT_DOUBLE_EQ(plain.ips_per_watt, audited.ips_per_watt);
  EXPECT_DOUBLE_EQ(plain.energy_j, audited.energy_j);
}

TEST(AuditIntegration, LedgersPopulateAndRideTheJsonReport) {
  SimulationConfig cfg = base_cfg();
  cfg.obs.audit = true;
  const SimulationResult r = run_smart(cfg);
  ASSERT_NE(r.obs, nullptr);
  ASSERT_TRUE(r.obs->audit_enabled);
  const obs::AuditSnapshot& a = r.obs->audit;
  EXPECT_GT(a.predictions, 0u);
  EXPECT_GT(a.joined, 0u);
  EXPECT_FALSE(a.threads.empty());
  EXPECT_FALSE(a.epochs.empty());
  EXPECT_FALSE(a.drift_states.empty());
  // Most passes validate one epoch later on this clean workload.
  int realized = 0;
  for (const auto& e : a.epochs) realized += e.realized_valid;
  EXPECT_GT(realized, 0);

  const auto doc = testjson::parse(to_json(r));
  ASSERT_TRUE(doc.contains("audit"));
  EXPECT_EQ(doc.at("audit").at("joined").num(), static_cast<double>(a.joined));
  EXPECT_EQ(doc.at("audit").at("thread_records").num(),
            static_cast<double>(a.threads.size()));
}

TEST(AuditIntegration, MergedExportIsByteIdenticalAcrossJobs) {
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(300);
  cfg.obs.audit = true;
  std::vector<ExperimentSpec> specs;
  for (const std::string bench : {"IMB_HTHI", "IMB_MTMI", "bodytrack"}) {
    for (const char* policy : {"vanilla", "smartbalance"}) {
      ExperimentSpec spec;
      spec.platform = arch::Platform::quad_heterogeneous();
      spec.cfg = cfg;
      spec.workload = [bench](Simulation& s) { s.add_benchmark(bench, 4); };
      spec.policy = policy == std::string("vanilla") ? vanilla_factory()
                                                     : smartbalance_factory();
      spec.label = bench + "/" + policy;
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

  // The export carries no host clocks, so unlike the Chrome trace this is
  // full byte identity, not shape identity.
  const std::string seq = merged(1);
  const std::string par = merged(8);
  EXPECT_EQ(seq, par);
  EXPECT_NE(seq.find("#summary runs=6"), std::string::npos);
}

TEST(AuditIntegration, OnlineResidualsAgreeWithFig6Methodology) {
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(3000);
  cfg.obs.audit = true;
  const SimulationResult r = run_smart(cfg);
  ASSERT_NE(r.obs, nullptr);
  const obs::AuditSnapshot& a = r.obs->audit;
  ASSERT_GT(a.threads.size(), 20u);

  double gips_err = 0, power_err = 0;
  for (const auto& t : a.threads) {
    gips_err += std::abs(t.gips_err);
    power_err += std::abs(t.power_err);
  }
  const double online_perf_pct = 100.0 * gips_err / a.threads.size();
  const double online_power_pct = 100.0 * power_err / a.threads.size();

  // The Fig. 6 in-sample error of the same predictor on the training
  // profiles. The online numbers measure the predictor on live epochs —
  // same model, different sampling — so the check is a loose-band
  // cross-validation of the recorder's residual math, not an equality.
  const auto platform = arch::Platform::quad_heterogeneous();
  Simulation probe(platform, base_cfg());
  const perf::PerfModel& perf = probe.perf_model();
  const power::PowerModel& power = probe.power_model();
  const core::PredictorTrainer trainer(perf, power);
  const auto profiles = core::PredictorTrainer::default_training_profiles();
  const auto in_sample = trainer.evaluate(trainer.train(profiles), profiles);

  EXPECT_GT(online_perf_pct, 0.0);
  EXPECT_GT(online_power_pct, 0.0);
  EXPECT_LT(online_perf_pct, 15.0);  // paper ballpark: 4.2% offline
  EXPECT_LT(online_power_pct, 15.0);  // paper ballpark: 5% offline
  EXPECT_LT(online_perf_pct, in_sample.avg_perf_err_pct + 10.0);
  EXPECT_LT(online_power_pct, in_sample.avg_power_err_pct + 10.0);
}

TEST(AuditIntegration, DriftDetectorSilentOnCleanRun) {
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(3000);
  cfg.obs.audit = true;
  const SimulationResult r = run_smart(cfg);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_TRUE(r.obs->audit.drift_events.empty());
  for (const auto& st : r.obs->audit.drift_states) {
    EXPECT_EQ(st.active, 0);
    EXPECT_LT(st.ewma_gips, obs::kDriftThreshold);
    EXPECT_LT(st.ewma_power, obs::kDriftThreshold);
  }
}

TEST(AuditIntegration, DriftDetectorFiresUnderNoisyPowerFaults) {
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(3000);
  cfg.obs.audit = true;
  core::SmartBalanceConfig sc;
  // Heavy gaussian noise on the power rails at a high per-epoch rate, with
  // the sensing defenses forced off so the polluted samples reach the
  // recorder (the ablation arm of the resilience sweep).
  sc.fault_plan = fault::FaultPlan::parse("noise:0.8:8", 0xfa517u);
  sc.defenses = core::SmartBalanceConfig::Defenses::kOff;
  const SimulationResult r = run_smart(cfg, sc);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_FALSE(r.obs->audit.drift_events.empty());
}

}  // namespace
}  // namespace sb::sim
