// Fig. 4(b) — SmartBalance vs vanilla Linux on the 4-type HMP with PARSEC
// benchmarks and the Table 3 mixes at 2/4/8 threads.
//
// Paper claim: "52% with the PARSEC benchmarks and their mixes ... Overall,
// SmartBalance achieves an energy efficiency of over 50% across all the
// benchmarks in comparison to the vanilla Linux kernel."
#include <fstream>
#include <iostream>
#include <vector>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"
#include "workload/benchmarks.h"
#include "workload/mixes.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header(
      "Fig. 4(b): energy efficiency vs vanilla Linux, PARSEC + Table 3 "
      "mixes (quad-core 4-type HMP)",
      "average improvement ~52% across benchmarks/mixes x {2,4,8} threads");

  const auto platform = arch::Platform::quad_heterogeneous();
  sim::SimulationConfig cfg;
  cfg.duration = opt.duration;
  cfg.seed = opt.seed;
  opt.apply_obs(cfg.obs);

  const std::vector<int> thread_counts =
      opt.quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8};
  const auto benchmarks = opt.quick
                              ? std::vector<std::string>{"bodytrack", "canneal",
                                                         "swaptions",
                                                         "x264_H_crew"}
                              : workload::BenchmarkLibrary::parsec_names();

  TextTable t({"workload", "threads", "vanilla MIPS/W", "SB(Eq.11)",
               "SB(global)", "gain(Eq.11) %", "gain(global) %"});
  CsvWriter csv("fig4b_parsec.csv",
                {"workload", "threads", "vanilla_mips_w", "sb_eq11_mips_w",
                 "sb_global_mips_w", "gain_eq11_pct", "gain_global_pct"});
  RunningStats gains, gains_eq11;
  // Queue the whole (workload × thread-count) sweep up front; the parallel
  // runner spreads the 3-simulations-per-bar batch across worker threads
  // (--jobs / SB_JOBS) with bit-identical results to the sequential loop.
  bench::GainSweep sweep(platform, cfg, opt.smart_config());
  std::vector<int> row_threads;
  auto queue = [&](const std::string& label, const sim::WorkloadBuilder& wb,
                   int nt) {
    sweep.add(label, wb, sim::vanilla_factory());
    row_threads.push_back(nt);
  };

  for (const auto& name : benchmarks) {
    for (int nt : thread_counts) {
      queue(name, [name, nt](sim::Simulation& s) {
        s.add_benchmark(name, nt);
      }, nt);
    }
  }
  // Table 3 mixes: the per-benchmark thread count splits the budget across
  // members (2 threads/member keeps total comparable to the 4/8 runs).
  const int mixes = opt.quick ? 2 : workload::num_mixes();
  for (int id = 1; id <= mixes; ++id) {
    for (int per : {1, 2}) {
      queue("Mix" + std::to_string(id),
            [id, per](sim::Simulation& s) { s.add_mix(id, per); }, per);
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

  std::cout << t << "\nAverage gain over vanilla (paper: ~52 %):\n"
            << "  Eq. 11 objective (paper-faithful): "
            << TextTable::fmt(gains_eq11.mean(), 1) << " %\n"
            << "  global IPS/W objective (default):  "
            << TextTable::fmt(gains.mean(), 1) << " %  [min "
            << TextTable::fmt(gains.min(), 1) << " %, max "
            << TextTable::fmt(gains.max(), 1) << " %]\n"
            << "Series written to fig4b_parsec.csv\n";
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
