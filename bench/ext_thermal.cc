// Extension experiment: thermal behaviour across policies.
//
// §6.4 of the paper situates SmartBalance in a sensing ecosystem that
// includes run-time thermal estimation & tracking (Sarma et al., DATE'14).
// With the RC thermal substrate enabled, this harness measures each
// policy's hot-spot temperature alongside its energy efficiency: spreading
// work onto the efficient cores doesn't just save joules, it flattens the
// thermal profile (the Huge core is both the watt hog and the hot spot).
#include <iostream>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/table.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header("Extension: thermal profile by policy (quad-core HMP)",
                "RC thermal model per core; hot spot follows the Huge "
                "core's load");

  const auto platform = arch::Platform::quad_heterogeneous();
  sim::SimulationConfig cfg;
  cfg.duration = opt.duration;
  cfg.seed = opt.seed;
  cfg.thermal_enabled = true;

  const auto workload = [](sim::Simulation& s) {
    s.add_benchmark("bodytrack", 4);
    s.add_benchmark("x264_H_crew", 4);
  };

  const auto runs = sim::compare_policies(
      platform, cfg, workload,
      sim::named_policies({"none", "vanilla", "smartbalance"}));

  TextTable t({"policy", "MIPS/W", "peak temp C", "final temps C "
               "(Huge/Big/Medium/Small)"});
  for (const auto& run : runs) {
    std::string temps;
    for (std::size_t i = 0; i < run.result.final_temp_c.size(); ++i) {
      if (i) temps += " / ";
      temps += TextTable::fmt(run.result.final_temp_c[i], 1);
    }
    t.add_row({run.policy, TextTable::fmt(run.result.ips_per_watt / 1e6, 1),
               TextTable::fmt(run.result.max_temp_c, 1), temps});
  }
  std::cout << t;
  return 0;
}
