// Example: octa-core big.LITTLE (4×A15 + 4×A7) running a mixed interactive
// + compute workload under vanilla, ARM GTS, and SmartBalance — the Fig. 5
// scenario as a narrative walkthrough, including per-thread placements.
//
//   ./build/examples/biglittle_showdown
#include <iomanip>
#include <iostream>

#include "arch/platform.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

int main() {
  using namespace sb;
  const auto platform = arch::Platform::octa_big_little();
  sim::SimulationConfig cfg;
  cfg.duration = milliseconds(600);
  cfg.label = "big.LITTLE showdown";

  const auto workload = [](sim::Simulation& s) {
    s.add_benchmark("swaptions", 2);     // compute hogs
    s.add_benchmark("canneal", 2);       // memory-bound hogs
    s.add_benchmark("IMB_HTHI", 2);      // heavy interactive
    s.add_benchmark("IMB_LTHI", 2);      // light interactive
  };

  const auto runs = sim::compare_policies(
      platform, cfg, workload,
      sim::named_policies({"vanilla", "gts", "smartbalance"}));

  for (const auto& run : runs) {
    std::cout << "--- " << run.policy << " ---\n";
    sim::print_result(std::cout, run.result, /*per_core=*/false);
    std::cout << "final placements:";
    for (const auto& t : run.result.threads) {
      std::cout << "  " << t.name << " (" << t.migrations << " migr)";
    }
    std::cout << "\n\n";
  }

  const auto& vanilla = runs[0].result;
  const auto& gts = runs[1].result;
  const auto& smart = runs[2].result;
  std::cout << std::fixed << std::setprecision(1)
            << "SmartBalance vs vanilla: "
            << 100.0 * (sim::efficiency_ratio(smart, vanilla) - 1.0)
            << " %\nSmartBalance vs GTS:     "
            << 100.0 * (sim::efficiency_ratio(smart, gts) - 1.0)
            << " %  (paper Fig. 5: ~20 %)\n";
  return 0;
}
