// Fig. 7 — (a) per-phase SmartBalance overhead on the quad-core HMP and
// (b) scalability of the overhead from 2 to 128 cores with 4 to 256
// threads (assuming 50% of threads migrate, as in the paper).
//
// Paper claim: "for typical embedded platforms with 2 to 8 cores, the
// average overhead of using SmartBalance is negligible with respect to the
// 60 ms epoch length (less than 1%)", with optimization + migration
// dominating at larger scales.
//
// Besides the tables/CSV, this harness writes BENCH_epoch.json: the
// per-phase breakdown at the quad and 128-core extremes against the
// committed pre-optimization baselines (see EXPERIMENTS.md "Hot-path
// performance").
#include <iostream>
#include <memory>
#include <vector>

#include "arch/platform.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "core/smart_balance.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace {

// Per-migration cost charged in the overhead account: kernel bookkeeping +
// cold-start stall amortized at the scheduler level (the *cache* warmup is
// modeled physically inside the simulation; this term is the paper's
// "thread migration" bar).
constexpr double kMigrationCostUs = 25.0;

struct PhaseRow {
  int cores = 0;
  int threads = 0;
  double sense_us = 0;
  double predict_us = 0;
  double optimize_us = 0;
  double migrate_us = 0;  // 50% of threads × per-migration cost
  double total_us() const {
    return sense_us + predict_us + optimize_us + migrate_us;
  }
};

sb::arch::Platform make_platform(int cores) {
  using namespace sb;
  if (cores >= 4) return arch::Platform::scaled_heterogeneous(cores / 4);
  arch::Platform p;
  p.add_cores(arch::big_core(), 1);
  p.add_cores(arch::small_core(), cores - 1);
  p.validate();
  return p;
}

PhaseRow measure(int cores, int threads, sb::TimeNs duration,
                 std::uint64_t seed) {
  using namespace sb;
  const auto platform = make_platform(cores);
  sim::SimulationConfig cfg;
  cfg.duration = duration;
  cfg.seed = seed;
  sim::Simulation s(platform, cfg);
  s.set_balancer(sim::smartbalance_factory(core::SmartBalanceConfig{})(s));
  // Mixed workload touching all characterization regimes.
  const char* names[] = {"swaptions", "canneal", "bodytrack", "x264_H_crew"};
  for (int i = 0; i < threads; ++i) {
    s.add_benchmark(names[i % 4], 1);
  }
  const auto r = s.run();
  PhaseRow row;
  row.cores = cores;
  row.threads = threads;
  row.sense_us = r.avg_sense_us;
  row.predict_us = r.avg_predict_us;
  row.optimize_us = r.avg_optimize_us;
  row.migrate_us = 0.5 * threads * kMigrationCostUs;
  return row;
}

void emit_phase_object(sb::bench::Json& j, const std::string& key,
                       const PhaseRow& row, double base_sense_us,
                       double base_predict_us, double base_optimize_us) {
  j.begin_object(key)
      .field("cores", row.cores)
      .field("threads", row.threads)
      .field("sense_us", row.sense_us)
      .field("predict_us", row.predict_us)
      .field("optimize_us", row.optimize_us)
      .field("migrate_us", row.migrate_us)
      .field("total_us", row.total_us())
      .field("pct_of_epoch", row.total_us() / 60'000.0 * 100)
      .field("baseline_sense_us", base_sense_us)
      .field("baseline_predict_us", base_predict_us)
      .field("baseline_optimize_us", base_optimize_us)
      .field("optimize_speedup_vs_baseline",
             row.optimize_us > 0 ? base_optimize_us / row.optimize_us : 0.0)
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header("Fig. 7: SmartBalance overhead and scalability",
                "(a) <1% of the 60 ms epoch on 2-8 cores; (b) optimization "
                "and migration dominate toward 128 cores / 256 threads");

  // --- (a) quad-core HMP ---------------------------------------------------
  const auto quad = measure(4, 8, opt.duration, opt.seed);
  TextTable ta({"phase", "avg host time (us)", "% of 60 ms epoch"});
  auto pct = [](double us) { return TextTable::fmt(us / 60'000.0 * 100, 4); };
  ta.add_row({"sense", TextTable::fmt(quad.sense_us, 1), pct(quad.sense_us)});
  ta.add_row({"predict", TextTable::fmt(quad.predict_us, 1),
              pct(quad.predict_us)});
  ta.add_row({"optimize (SA)", TextTable::fmt(quad.optimize_us, 1),
              pct(quad.optimize_us)});
  ta.add_row({"migrate (50% of threads)", TextTable::fmt(quad.migrate_us, 1),
              pct(quad.migrate_us)});
  ta.add_row({"TOTAL", TextTable::fmt(quad.total_us(), 1),
              pct(quad.total_us())});
  std::cout << "(a) quad-core HMP, 8 threads:\n"
            << ta << "\n";

  // --- (b) scalability -----------------------------------------------------
  std::vector<std::pair<int, int>> scenarios = {{2, 4},   {4, 8},   {8, 16},
                                                {16, 32}, {32, 64}, {64, 128},
                                                {128, 256}};
  if (opt.quick) scenarios.resize(5);
  TextTable tb({"cores", "threads", "sense us", "predict us", "optimize us",
                "migrate us", "total us", "% of epoch"});
  CsvWriter csv("fig7_scalability.csv",
                {"cores", "threads", "sense_us", "predict_us", "optimize_us",
                 "migrate_us", "total_us"});
  PhaseRow large;  // the 128-core/256-thread extreme (skipped with --quick)
  for (const auto& [n, m] : scenarios) {
    // Larger platforms get a shorter window — overhead per pass is what we
    // measure, a few epochs suffice.
    const TimeNs window =
        n >= 32 ? milliseconds(180) : std::min<TimeNs>(opt.duration, milliseconds(300));
    const auto row = measure(n, m, window, opt.seed);
    if (n == 128) large = row;
    tb.add_row({std::to_string(n), std::to_string(m),
                TextTable::fmt(row.sense_us, 1),
                TextTable::fmt(row.predict_us, 1),
                TextTable::fmt(row.optimize_us, 1),
                TextTable::fmt(row.migrate_us, 1),
                TextTable::fmt(row.total_us(), 1), pct(row.total_us())});
    csv.row({std::to_string(n), std::to_string(m),
             TextTable::fmt(row.sense_us, 2), TextTable::fmt(row.predict_us, 2),
             TextTable::fmt(row.optimize_us, 2),
             TextTable::fmt(row.migrate_us, 2),
             TextTable::fmt(row.total_us(), 2)});
  }
  std::cout << "(b) scalability (2-128 cores, 4-256 threads):\n"
            << tb << "\nSeries written to fig7_scalability.csv\n";

  // --- BENCH_epoch.json ----------------------------------------------------
  // Pre-PR per-phase baselines measured on the same machine at -O2 -DNDEBUG
  // (commit b792c4d, default duration, seed 1234, identical workload mix).
  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_epoch")
      .field("description",
             "SmartBalance per-phase epoch overhead (PARSEC mix workload)")
      .field("build", "-O2 -DNDEBUG")
      .field("baseline_commit", "b792c4d");
  emit_phase_object(j, "quad", quad, 4.8, 1.0, 54.8);
  if (large.cores == 128) {
    emit_phase_object(j, "fig7_large", large, 130.9, 788.1, 7386.8);
  }
  j.end_object();
  j.write("BENCH_epoch.json");
  return 0;
}
