// Ablation study over SmartBalance's design choices (DESIGN.md §5):
//   1. the balancing objective (paper's Eq. 11 vs global IPS/W);
//   2. observation smoothing across epochs;
//   3. post-migration cooldown and the hysteresis threshold;
//   4. sensor noise;
//   5. SA iteration budget sweep.
// Each variant runs the same diverse workload on the quad-core HMP; the
// score is global energy efficiency (MIPS/W) and migration count.
#include <iostream>
#include <memory>
#include <string_view>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/smart_balance.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace {

using namespace sb;

struct Score {
  double mips_w = 0;
  std::uint64_t migrations = 0;
};

Score run_variant(const bench::Options& opt, core::SmartBalanceConfig cfg,
                  std::string_view policy = "smartbalance") {
  const auto platform = arch::Platform::quad_heterogeneous();
  sim::SimulationConfig scfg;
  scfg.duration = opt.duration;
  scfg.seed = opt.seed;
  sim::Simulation s(platform, scfg);
  s.set_balancer(sim::policy_factory(policy, cfg)(s));
  s.add_benchmark("canneal", 2);
  s.add_benchmark("swaptions", 2);
  s.add_benchmark("x264_H_crew", 2);
  s.add_benchmark("IMB_HTHI", 2);
  const auto r = s.run();
  return {r.ips_per_watt / 1e6, r.migrations};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::header("Ablation: SmartBalance design choices",
                "each row disables/perturbs one mechanism on the same "
                "diverse 8-thread workload");

  TextTable t({"variant", "MIPS/W", "migrations", "delta vs default %"});
  const core::SmartBalanceConfig def;
  const Score base = run_variant(opt, def);
  auto add = [&](const std::string& name, const Score& s) {
    t.add_row({name, TextTable::fmt(s.mips_w, 1),
               std::to_string(s.migrations),
               TextTable::fmt(100.0 * (s.mips_w / base.mips_w - 1.0), 2)});
  };
  add("default", base);

  add("Eq. 11 objective (paper-faithful)",
      run_variant(opt, def, "smartbalance-eq11"));
  {
    auto cfg = def;
    cfg.sensing.smoothing = 0.0;
    add("no observation smoothing", run_variant(opt, cfg));
  }
  {
    auto cfg = def;
    cfg.migration_cooldown_epochs = 0;
    add("no migration cooldown", run_variant(opt, cfg));
  }
  {
    auto cfg = def;
    cfg.min_relative_gain = 0.0;
    add("no hysteresis threshold", run_variant(opt, cfg));
  }
  {
    auto cfg = def;
    cfg.sensing.counter_noise_sigma = 0.05;
    cfg.sensing.energy_noise_sigma = 0.05;
    add("10x sensor noise", run_variant(opt, cfg));
  }
  for (int iters : {50, 200, 2000}) {
    auto cfg = def;
    cfg.sa_iterations = iters;
    add("SA iterations = " + std::to_string(iters), run_variant(opt, cfg));
  }

  std::cout << t;
  return 0;
}
