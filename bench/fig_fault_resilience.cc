// Fault-resilience sweep — energy-efficiency retention under sensor faults.
//
// The paper's closed loop is sensing-driven (§4.1): every migration decision
// rests on hardware counters and power rails that real MPSoCs deliver
// imperfectly. This sweep injects a uniform per-epoch fault mix (counter
// wrap/saturation, dropped/duplicated samples, stuck/noisy power rails,
// rejected/delayed migrations, core sensor blackouts; see fault/fault_plan.h)
// at increasing rates and measures how much of SmartBalance's zero-fault
// efficiency advantage over vanilla CFS survives:
//   - defended:   plausibility screens + outlier rejection + stale fallback
//                 + degraded-mode delegation (the default under faults)
//   - undefended: the same faults with every defense forced off (ablation)
// Retention = (defended gain at rate r) / (zero-fault gain). The defense
// target: >= 80% retention at a 5% per-epoch fault rate, with the
// undefended arm measurably worse.
#include <iostream>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "fault/fault_plan.h"
#include "sim/runner.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header(
      "Fault resilience: SmartBalance efficiency retention under sensor "
      "faults (octa-core big.LITTLE, 4xA15 + 4xA7)",
      "sensing-driven balancing must tolerate imperfect telemetry (§4.1)");

  const auto platform = arch::Platform::octa_big_little();
  sim::SimulationConfig cfg;
  cfg.duration = opt.duration;
  cfg.seed = opt.seed;
  opt.apply_obs(cfg.obs);

  const std::vector<std::pair<std::string, int>> workloads = {
      {"bodytrack", 8}, {"x264_H_crew", 8}, {"canneal", 8}, {"IMB_MTMI", 8}};
  const std::vector<double> rates =
      opt.quick ? std::vector<double>{0.0, 0.05}
                : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10};

  // Train the predictor once and share the model across every arm (training
  // is deterministic per platform shape; per-arm factories would repeat it).
  const auto model = [&] {
    sim::Simulation probe(platform, cfg);
    return sim::train_default_model(probe.perf_model(), probe.power_model());
  }();

  auto sb_factory = [&](double rate, bool defended) {
    core::SmartBalanceConfig sc;
    sc.fault_plan = fault::FaultPlan::uniform(rate, opt.fault_seed);
    sc.defenses = defended ? core::SmartBalanceConfig::Defenses::kAuto
                           : core::SmartBalanceConfig::Defenses::kOff;
    return sim::smartbalance_factory_with_model(model, sc);
  };

  // Queue every simulation of the sweep up front: per workload one vanilla
  // run plus, per rate, a defended and an undefended SmartBalance arm
  // (at rate 0 the two arms coincide with the clean golden path).
  std::vector<sim::ExperimentSpec> specs;
  auto push = [&](const std::string& label, const sim::BalancerFactory& f,
                  const std::string& wname, int nthreads) {
    sim::ExperimentSpec spec;
    spec.platform = platform;
    spec.cfg = cfg;
    spec.workload = [wname, nthreads](sim::Simulation& s) {
      s.add_benchmark(wname, nthreads);
    };
    spec.policy = f;
    spec.label = label;
    specs.push_back(std::move(spec));
  };
  for (const auto& [name, nt] : workloads) {
    push(name + "/vanilla", sim::vanilla_factory(), name, nt);
    for (double r : rates) {
      push(name + "/def", sb_factory(r, true), name, nt);
      push(name + "/undef", sb_factory(r, false), name, nt);
    }
  }

  const auto batch = opt.runner().run(specs);
  for (const auto& r : batch.runs) {
    if (!r.ok()) {
      std::cerr << "run '" << r.label << "' failed: " << r.error << "\n";
      return 1;
    }
  }
  bench::print_batch_summary(batch.summary);

  // Unpack in submission order: stride = 1 vanilla + 2 per rate.
  const std::size_t stride = 1 + 2 * rates.size();
  TextTable t({"rate", "vanilla MIPS/W", "SB def", "SB undef", "def gain %",
               "undef gain %", "retention %", "detected", "degraded"});
  CsvWriter csv("fig_fault_resilience.csv",
                {"rate", "workload", "vanilla_mips_w", "sb_defended_mips_w",
                 "sb_undefended_mips_w", "defended_gain_pct",
                 "undefended_gain_pct", "retention_pct", "faults_injected",
                 "faults_detected", "faults_absorbed", "degraded_passes"});

  double retention_at_5pct = -1.0, undef_gain_at_5pct = 0.0, def_gain_0 = 0.0;
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    double van_sum = 0, def_sum = 0, undef_sum = 0;
    std::uint64_t detected = 0, degraded = 0;
    // Zero-fault gain baseline for retention (per-rate aggregate of means).
    double van0_sum = 0, def0_sum = 0;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      const auto& vanilla = batch.runs[wi * stride].result;
      const auto& def = batch.runs[wi * stride + 1 + 2 * ri].result;
      const auto& undef = batch.runs[wi * stride + 2 + 2 * ri].result;
      const auto& def0 = batch.runs[wi * stride + 1].result;
      van_sum += vanilla.ips_per_watt;
      def_sum += def.ips_per_watt;
      undef_sum += undef.ips_per_watt;
      van0_sum += vanilla.ips_per_watt;
      def0_sum += def0.ips_per_watt;
      detected += def.faults_detected;
      degraded += def.degraded_passes;

      const double g0 = def0.ips_per_watt / vanilla.ips_per_watt - 1.0;
      const double gd = def.ips_per_watt / vanilla.ips_per_watt - 1.0;
      const double gu = undef.ips_per_watt / vanilla.ips_per_watt - 1.0;
      csv.row({TextTable::fmt(rates[ri], 2), workloads[wi].first,
               TextTable::fmt(vanilla.ips_per_watt / 1e6, 3),
               TextTable::fmt(def.ips_per_watt / 1e6, 3),
               TextTable::fmt(undef.ips_per_watt / 1e6, 3),
               TextTable::fmt(100.0 * gd, 3), TextTable::fmt(100.0 * gu, 3),
               TextTable::fmt(g0 > 0 ? 100.0 * gd / g0 : 0.0, 3),
               std::to_string(def.faults_injected),
               std::to_string(def.faults_detected),
               std::to_string(def.faults_absorbed),
               std::to_string(def.degraded_passes)});
    }
    const double g0 = def0_sum / van0_sum - 1.0;
    const double gd = def_sum / van_sum - 1.0;
    const double gu = undef_sum / van_sum - 1.0;
    const double retention = g0 > 0 ? 100.0 * gd / g0 : 0.0;
    if (ri == 0) def_gain_0 = 100.0 * g0;
    if (rates[ri] == 0.05) {
      retention_at_5pct = retention;
      undef_gain_at_5pct = 100.0 * gu;
    }
    t.add_row({TextTable::fmt(rates[ri], 2),
               TextTable::fmt(van_sum / workloads.size() / 1e6, 1),
               TextTable::fmt(def_sum / workloads.size() / 1e6, 1),
               TextTable::fmt(undef_sum / workloads.size() / 1e6, 1),
               TextTable::fmt(100.0 * gd, 1), TextTable::fmt(100.0 * gu, 1),
               TextTable::fmt(retention, 1), std::to_string(detected),
               std::to_string(degraded)});
    csv.row({TextTable::fmt(rates[ri], 2), "MEAN",
             TextTable::fmt(van_sum / workloads.size() / 1e6, 3),
             TextTable::fmt(def_sum / workloads.size() / 1e6, 3),
             TextTable::fmt(undef_sum / workloads.size() / 1e6, 3),
             TextTable::fmt(100.0 * gd, 3), TextTable::fmt(100.0 * gu, 3),
             TextTable::fmt(retention, 3), std::to_string(detected), "",
             "", std::to_string(degraded)});
  }

  std::cout << t << "\nZero-fault SB advantage over vanilla: "
            << TextTable::fmt(def_gain_0, 1) << " %\n";
  if (retention_at_5pct >= 0) {
    std::cout << "Retention at 5% fault rate (defended, target >= 80%): "
              << TextTable::fmt(retention_at_5pct, 1) << " %\n"
              << "Undefended gain at 5% fault rate: "
              << TextTable::fmt(undef_gain_at_5pct, 1) << " %\n";
  }
  std::cout << "Series written to fig_fault_resilience.csv\n";

  // Runs are stamped with their submission index by the runner, so the
  // merged exports are --jobs-invariant.
  std::vector<const obs::RunObs*> runs;
  for (const auto& r : batch.runs) {
    if (r.result.obs) runs.push_back(r.result.obs.get());
  }
  return opt.write_exports(runs);
}
