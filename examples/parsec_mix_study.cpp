// Example: study a Table 3 benchmark mix on the 4-type HMP under three
// policies (no balancing, vanilla CFS balancing, SmartBalance) and print
// the per-core energy/throughput breakdown for each.
//
//   ./build/examples/parsec_mix_study [mix-id 1..6] [threads-per-member]
#include <cstdlib>
#include <iostream>

#include "arch/platform.h"
#include "sim/experiment.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "workload/mixes.h"

int main(int argc, char** argv) {
  using namespace sb;
  const int mix_id = argc > 1 ? std::atoi(argv[1]) : 6;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 2;
  if (mix_id < 1 || mix_id > workload::num_mixes() || threads < 1) {
    std::cerr << "usage: parsec_mix_study [mix 1..6] [threads-per-member]\n";
    return 2;
  }

  std::cout << "Mix" << mix_id << " members:";
  for (const auto& m : workload::mix_members(mix_id)) std::cout << ' ' << m;
  std::cout << ", " << threads << " threads each\n\n";

  const auto platform = arch::Platform::quad_heterogeneous();
  sim::SimulationConfig cfg;
  cfg.duration = milliseconds(600);
  cfg.label = "Mix" + std::to_string(mix_id);

  // All three policies run concurrently through the experiment runner
  // (worker count: SB_JOBS env var, else hardware concurrency); results are
  // deterministic and come back in submission order.
  const auto batch = sim::run_sweep(
      platform, cfg,
      {{"Mix" + std::to_string(mix_id),
        [&](sim::Simulation& s) { s.add_mix(mix_id, threads); }}},
      sim::named_policies({"none", "vanilla", "smartbalance"}));
  const auto& runs = batch.runs;

  for (const auto& run : runs) {
    if (!run.ok()) {
      std::cerr << "run '" << run.label << "' failed: " << run.error << "\n";
      return 1;
    }
    sim::print_result(std::cout, run.result);
    std::cout << '\n';
  }

  std::cout << "SmartBalance vs vanilla: "
            << 100.0 * (sim::efficiency_ratio(runs[2].result, runs[1].result) -
                        1.0)
            << " % better IPS/W  (batch: " << batch.summary.threads
            << " worker thread(s), " << static_cast<long>(batch.summary.wall_ms)
            << " ms wall)\n";
  return 0;
}
