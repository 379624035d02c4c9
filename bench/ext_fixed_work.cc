// Extension experiment: fixed-work (run-to-completion) comparison.
//
// The paper's figures measure steady-state throughput/Watt over a window;
// an equally important operational view is energy-to-solution: give every
// policy the *same finite job set* and compare the joules and wall-clock
// it takes to finish. Energy efficiency gains must show up as real joule
// savings here — and the makespan the efficiency objectives trade for them
// becomes visible.
#include <iostream>
#include <memory>

#include "arch/platform.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/objective.h"
#include "core/smart_balance.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace {

using namespace sb;

struct Outcome {
  double joules = 0;
  double makespan_ms = 0;
  bool finished = false;
};

Outcome run_jobs(const bench::Options& opt, const sim::BalancerFactory& f) {
  const auto platform = arch::Platform::quad_heterogeneous();
  sim::SimulationConfig cfg;
  cfg.duration = seconds(10);  // generous cap; run_to_completion stops early
  cfg.run_to_completion = true;
  cfg.seed = opt.seed;
  sim::Simulation s(platform, cfg);
  s.set_balancer(f(s));
  // A fixed job set: every thread retires exactly this many instructions.
  Rng rng(opt.seed);
  for (const char* name : {"canneal", "swaptions", "bodytrack", "x264_H_crew"}) {
    for (auto& tb : workload::BenchmarkLibrary::get(name).spawn(2, rng)) {
      tb.total_instructions = 150'000'000;
      s.add_thread(std::move(tb));
    }
  }
  const auto r = s.run();
  Outcome o;
  o.joules = r.energy_j;
  o.makespan_ms = to_millis(r.simulated);
  o.finished = true;
  for (const auto& t : r.threads) o.finished = o.finished && t.completed;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::header("Extension: fixed-work energy-to-solution (quad-core HMP)",
                "8 jobs x 150M instructions; lower joules = real savings, "
                "makespan exposes the efficiency/performance trade");

  TextTable t({"policy", "energy (J)", "makespan (ms)", "finished",
               "J vs vanilla %"});
  const auto policies = std::vector<std::pair<std::string, sim::BalancerFactory>>{
      {"vanilla", sim::vanilla_factory()},
      {"smartbalance (global IPS/W)", sim::smartbalance_factory()},
      {"smartbalance (Eq. 11)", sim::policy_factory("smartbalance-eq11")},
  };
  double base = 0;
  for (const auto& [name, factory] : policies) {
    const auto o = run_jobs(opt, factory);
    if (base == 0) base = o.joules;
    t.add_row({name, TextTable::fmt(o.joules, 3),
               TextTable::fmt(o.makespan_ms, 0), o.finished ? "yes" : "NO",
               TextTable::fmt(100.0 * (o.joules / base - 1.0), 1)});
  }
  std::cout << t
            << "\n(negative J%: the policy finished the same work on fewer "
               "joules)\n";
  return 0;
}
