// Fig. 4(a) — SmartBalance vs vanilla Linux on the 4-type HMP with the
// nine interactive microbenchmarks (IMB) at 2/4/8 threads.
//
// Paper claim: "the SmartBalance kernel performs 50.02% on average better
// with the interactive benchmarks". Expected shape here: very large gains
// when threads ≤ cores (the Huge/Big cores can sleep), moderate gains at
// 8 threads, average in the tens of percent.
#include <string>
#include <vector>

#include "arch/platform.h"
#include "bench_util.h"
#include "workload/benchmarks.h"

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header(
      "Fig. 4(a): energy efficiency vs vanilla Linux, interactive "
      "microbenchmarks (quad-core 4-type HMP)",
      "average improvement 50.02% across IMB configs x {2,4,8} threads");

  const std::vector<int> thread_counts =
      opt.quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8};

  // Queue the whole sweep; the parallel runner's results are bit-identical
  // to a sequential loop, and the bars are reported in submission order.
  bench::GainSweep sweep(arch::Platform::quad_heterogeneous(), opt);
  for (const auto& name : workload::BenchmarkLibrary::imb_names()) {
    for (int nt : thread_counts) {
      sweep.add({name, std::to_string(nt)}, [name, nt](sim::Simulation& s) {
        s.add_benchmark(name, nt);
      }, sim::vanilla_factory());
    }
  }
  return sweep.report({.csv = "fig4a_imb.csv",
                       .keys = {{"IMB config", "benchmark"},
                                {"threads", "threads"}},
                       .baseline = "vanilla",
                       .paper = "50.02 %"});
}
