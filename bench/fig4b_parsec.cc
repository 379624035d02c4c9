// Fig. 4(b) — SmartBalance vs vanilla Linux on the 4-type HMP with PARSEC
// benchmarks and the Table 3 mixes at 2/4/8 threads.
//
// Paper claim: "52% with the PARSEC benchmarks and their mixes ... Overall,
// SmartBalance achieves an energy efficiency of over 50% across all the
// benchmarks in comparison to the vanilla Linux kernel."
#include <string>
#include <vector>

#include "arch/platform.h"
#include "bench_util.h"
#include "workload/benchmarks.h"
#include "workload/mixes.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header(
      "Fig. 4(b): energy efficiency vs vanilla Linux, PARSEC + Table 3 "
      "mixes (quad-core 4-type HMP)",
      "average improvement ~52% across benchmarks/mixes x {2,4,8} threads");

  const std::vector<int> thread_counts =
      opt.quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8};
  const auto benchmarks = opt.quick
                              ? std::vector<std::string>{"bodytrack", "canneal",
                                                         "swaptions",
                                                         "x264_H_crew"}
                              : workload::BenchmarkLibrary::parsec_names();

  // Queue the whole (workload × thread-count) sweep up front; the parallel
  // runner spreads the 3-simulations-per-bar batch across worker threads
  // (--jobs / SB_JOBS) with bit-identical results to the sequential loop.
  bench::GainSweep sweep(arch::Platform::quad_heterogeneous(), opt);
  for (const auto& name : benchmarks) {
    for (int nt : thread_counts) {
      sweep.add({name, std::to_string(nt)}, [name, nt](sim::Simulation& s) {
        s.add_benchmark(name, nt);
      }, sim::vanilla_factory());
    }
  }
  // Table 3 mixes: the per-benchmark thread count splits the budget across
  // members (2 threads/member keeps total comparable to the 4/8 runs).
  const int mixes = opt.quick ? 2 : workload::num_mixes();
  for (int id = 1; id <= mixes; ++id) {
    for (int per : {1, 2}) {
      sweep.add({"Mix" + std::to_string(id), std::to_string(per)},
                [id, per](sim::Simulation& s) { s.add_mix(id, per); },
                sim::vanilla_factory());
    }
  }
  return sweep.report({.csv = "fig4b_parsec.csv",
                       .keys = {{"workload", "workload"},
                                {"threads", "threads"}},
                       .baseline = "vanilla",
                       .paper = "~52 %"});
}
