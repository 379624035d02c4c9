// Fig. 4(a) — SmartBalance vs vanilla Linux on the 4-type HMP with the
// nine interactive microbenchmarks (IMB) at 2/4/8 threads.
//
// Paper claim: "the SmartBalance kernel performs 50.02% on average better
// with the interactive benchmarks". Expected shape here: very large gains
// when threads ≤ cores (the Huge/Big cores can sleep), moderate gains at
// 8 threads, average in the tens of percent.
#include <fstream>
#include <iostream>
#include <vector>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"
#include "workload/benchmarks.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header(
      "Fig. 4(a): energy efficiency vs vanilla Linux, interactive "
      "microbenchmarks (quad-core 4-type HMP)",
      "average improvement 50.02% across IMB configs x {2,4,8} threads");

  const auto platform = arch::Platform::quad_heterogeneous();
  sim::SimulationConfig cfg;
  cfg.duration = opt.duration;
  cfg.seed = opt.seed;
  opt.apply_obs(cfg.obs);

  const std::vector<int> thread_counts =
      opt.quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8};

  TextTable t({"IMB config", "threads", "vanilla MIPS/W", "SB(Eq.11)",
               "SB(global)", "gain(Eq.11) %", "gain(global) %"});
  CsvWriter csv("fig4a_imb.csv",
                {"benchmark", "threads", "vanilla_mips_w", "sb_eq11_mips_w",
                 "sb_global_mips_w", "gain_eq11_pct", "gain_global_pct"});
  RunningStats gains, gains_eq11;
  // Queue the whole sweep, execute it through the parallel runner, then
  // emit rows in submission order (the output is identical to the old
  // sequential loop — the runner guarantees bit-identical results).
  bench::GainSweep sweep(platform, cfg, opt.smart_config());
  std::vector<int> row_threads;
  for (const auto& name : workload::BenchmarkLibrary::imb_names()) {
    for (int nt : thread_counts) {
      sweep.add(name, [name, nt](sim::Simulation& s) {
        s.add_benchmark(name, nt);
      }, sim::vanilla_factory());
      row_threads.push_back(nt);
    }
  }
  const auto rows = sweep.run(opt.runner());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto nt = std::to_string(row_threads[i]);
    t.add_row({row.label, nt, TextTable::fmt(row.baseline_mips_w, 1),
               TextTable::fmt(row.smart_eq11_mips_w, 1),
               TextTable::fmt(row.smart_mips_w, 1),
               TextTable::fmt(row.gain_eq11_pct, 1),
               TextTable::fmt(row.gain_pct, 1)});
    csv.row({row.label, nt, TextTable::fmt(row.baseline_mips_w, 3),
             TextTable::fmt(row.smart_eq11_mips_w, 3),
             TextTable::fmt(row.smart_mips_w, 3),
             TextTable::fmt(row.gain_eq11_pct, 3),
             TextTable::fmt(row.gain_pct, 3)});
    gains.add(row.gain_pct);
    gains_eq11.add(row.gain_eq11_pct);
  }
  bench::print_batch_summary(sweep.summary());
  std::cout << t << "\nAverage gain over vanilla (paper: 50.02 %):\n"
            << "  Eq. 11 objective (paper-faithful): "
            << TextTable::fmt(gains_eq11.mean(), 1) << " %\n"
            << "  global IPS/W objective (default):  "
            << TextTable::fmt(gains.mean(), 1) << " %  [min "
            << TextTable::fmt(gains.min(), 1) << " %, max "
            << TextTable::fmt(gains.max(), 1) << " %]\n"
            << "Series written to fig4a_imb.csv\n";
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
