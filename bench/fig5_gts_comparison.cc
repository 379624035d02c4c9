// Fig. 5 — Normalized energy efficiency w.r.t. state-of-the-art ARM GTS on
// an octa-core big.LITTLE (4×A15 + 4×A7).
//
// Paper claim: GTS's utilization-threshold binary decision "limits GTS from
// achieving (near) optimal energy efficiency by as much as ~20% in
// comparison to SmartBalance".
#include <fstream>
#include <iostream>
#include <vector>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header(
      "Fig. 5: normalized energy efficiency vs ARM GTS (octa-core "
      "big.LITTLE, 4xA15 + 4xA7)",
      "SmartBalance over GTS by ~20% across benchmarks");

  const auto platform = arch::Platform::octa_big_little();
  sim::SimulationConfig cfg;
  cfg.duration = opt.duration;
  cfg.seed = opt.seed;
  opt.apply_obs(cfg.obs);

  const std::vector<std::pair<std::string, int>> workloads = {
      {"bodytrack", 8},   {"x264_H_crew", 8}, {"x264_L_bow", 8},
      {"canneal", 8},     {"swaptions", 8},   {"streamcluster", 8},
      {"ferret", 8},      {"fluidanimate", 8}, {"IMB_HTHI", 8},
      {"IMB_MTMI", 8},
  };

  TextTable t({"workload", "GTS MIPS/W", "SB(Eq.11)", "SB(global)",
               "gain(Eq.11) %", "gain(global) %"});
  CsvWriter csv("fig5_gts.csv",
                {"workload", "gts_mips_w", "sb_eq11_mips_w",
                 "sb_global_mips_w", "gain_eq11_pct", "gain_global_pct"});
  RunningStats gains, gains_eq11;
  // Queue all bars, execute through the parallel runner, emit in order.
  bench::GainSweep sweep(platform, cfg, opt.smart_config());
  for (const auto& [name, nt] : workloads) {
    sweep.add(name,
              [n = name, k = nt](sim::Simulation& s) { s.add_benchmark(n, k); },
              sim::policy_factory("gts"));
  }
  for (const auto& row : sweep.run(opt.runner())) {
    t.add_row({row.label, TextTable::fmt(row.baseline_mips_w, 1),
               TextTable::fmt(row.smart_eq11_mips_w, 1),
               TextTable::fmt(row.smart_mips_w, 1),
               TextTable::fmt(row.gain_eq11_pct, 1),
               TextTable::fmt(row.gain_pct, 1)});
    csv.row({row.label, TextTable::fmt(row.baseline_mips_w, 3),
             TextTable::fmt(row.smart_eq11_mips_w, 3),
             TextTable::fmt(row.smart_mips_w, 3),
             TextTable::fmt(row.gain_eq11_pct, 3),
             TextTable::fmt(row.gain_pct, 3)});
    gains.add(row.gain_pct);
    gains_eq11.add(row.gain_eq11_pct);
  }
  bench::print_batch_summary(sweep.summary());
  std::cout << t << "\nAverage gain over GTS (paper: ~20 %):\n"
            << "  Eq. 11 objective (paper-faithful): "
            << TextTable::fmt(gains_eq11.mean(), 1) << " %\n"
            << "  global IPS/W objective (default):  "
            << TextTable::fmt(gains.mean(), 1) << " %\n"
            << "Series written to fig5_gts.csv\n";
  if (!opt.trace.empty() && sweep.write_trace(opt.trace)) {
    std::cout << "trace written to " << opt.trace << "\n";
  }
  if (!opt.audit.empty() && sweep.write_audit(opt.audit)) {
    std::cout << "audit export written to " << opt.audit << "\n";
  }
  if (!opt.metrics_json.empty()) {
    std::ofstream ms(opt.metrics_json);
    sweep.merged_metrics().write_json(ms);
    ms << "\n";
    std::cout << "metrics written to " << opt.metrics_json << "\n";
  } else if (opt.metrics) {
    std::cout << "metrics: ";
    sweep.merged_metrics().write_json(std::cout);
    std::cout << "\n";
  }
  return 0;
}
