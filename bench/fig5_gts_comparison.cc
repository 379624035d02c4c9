// Fig. 5 — Normalized energy efficiency w.r.t. state-of-the-art ARM GTS on
// an octa-core big.LITTLE (4×A15 + 4×A7).
//
// Paper claim: GTS's utilization-threshold binary decision "limits GTS from
// achieving (near) optimal energy efficiency by as much as ~20% in
// comparison to SmartBalance".
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header(
      "Fig. 5: normalized energy efficiency vs ARM GTS (octa-core "
      "big.LITTLE, 4xA15 + 4xA7)",
      "SmartBalance over GTS by ~20% across benchmarks");

  const std::vector<std::pair<std::string, int>> workloads = {
      {"bodytrack", 8},   {"x264_H_crew", 8}, {"x264_L_bow", 8},
      {"canneal", 8},     {"swaptions", 8},   {"streamcluster", 8},
      {"ferret", 8},      {"fluidanimate", 8}, {"IMB_HTHI", 8},
      {"IMB_MTMI", 8},
  };

  bench::GainSweep sweep(arch::Platform::octa_big_little(), opt);
  for (const auto& [name, nt] : workloads) {
    sweep.add({name},
              [n = name, k = nt](sim::Simulation& s) { s.add_benchmark(n, k); },
              sim::policy_factory("gts"));
  }
  return sweep.report({.csv = "fig5_gts.csv",
                       .keys = {{"workload", "workload"}},
                       .baseline = "GTS",
                       .paper = "~20 %"});
}
