// Extension experiment: the full Table 1 policy ladder on big.LITTLE.
//
// The paper's Table 1 positions SmartBalance against vanilla Linux,
// Linaro IKS (cluster-pair switching), ARM GTS (per-task binary
// up/down-migration) and Kim2014 (per-core utilization-aware balancing).
// This harness runs all five on the octa-core big.LITTLE with workloads of
// increasing heterogeneity, reproducing the progression the related-work
// section describes: each added level of awareness (cluster → task →
// utilization → per-thread IPC+power) buys energy efficiency.
#include <iostream>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header("Extension: Table 1 policy ladder (octa-core big.LITTLE)",
                "cluster-switch (IKS) < util-aware (Kim2014) ~ GTS < "
                "per-thread IPC+power (SmartBalance)");

  const auto platform = arch::Platform::octa_big_little();
  sim::SimulationConfig cfg;
  cfg.duration = opt.duration;
  cfg.seed = opt.seed;

  const std::vector<std::pair<std::string, sim::WorkloadBuilder>> workloads = {
      {"uniform compute (swaptions x8)",
       [](sim::Simulation& s) { s.add_benchmark("swaptions", 8); }},
      {"mixed compute+memory",
       [](sim::Simulation& s) {
         s.add_benchmark("swaptions", 4);
         s.add_benchmark("canneal", 4);
       }},
      {"mixed + interactive",
       [](sim::Simulation& s) {
         s.add_benchmark("swaptions", 2);
         s.add_benchmark("canneal", 2);
         s.add_benchmark("IMB_HTHI", 2);
         s.add_benchmark("IMB_LTHI", 2);
       }},
  };

  const auto policies = sim::named_policies(
      {"vanilla", "iks", "utilaware", "gts", "smartbalance"});

  CsvWriter csv("ext_baselines.csv", {"workload", "policy", "mips_w"});
  // The full (workload × policy) ladder is one parallel batch; run_sweep
  // orders results workload-major with policies in declaration order, so
  // runs[w * policies + p] is workload w under policy p.
  const auto batch =
      sim::run_sweep(platform, cfg, workloads, policies, /*replicas=*/1,
                     opt.runner());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    TextTable t({"policy", "MIPS/W", "vs vanilla %", "migrations"});
    const auto* runs = &batch.runs[w * policies.size()];
    const double base = runs[0].result.ips_per_watt;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const auto& run = runs[p];
      if (!run.ok()) {
        std::cerr << "run '" << run.label << "' failed: " << run.error << "\n";
        return 1;
      }
      t.add_row({run.result.policy,
                 TextTable::fmt(run.result.ips_per_watt / 1e6, 1),
                 TextTable::fmt(100.0 * (run.result.ips_per_watt / base - 1.0),
                                1),
                 std::to_string(run.result.migrations)});
      csv.row({workloads[w].first, run.result.policy,
               TextTable::fmt(run.result.ips_per_watt / 1e6, 3)});
    }
    std::cout << workloads[w].first << ":\n" << t << "\n";
  }
  bench::print_batch_summary(batch.summary);
  std::cout << "Series written to ext_baselines.csv\n";
  return 0;
}
