// fig_shard_scaling — sharded hierarchical balancing at 128/512/1024 cores.
//
// Tentpole claim: with the platform split into K cluster shards, the
// BALANCE phase's optimize+exchange cost *per core* strictly decreases as
// the platform grows (the global annealing budget saturates at the Fig. 8a
// cap, each shard anneals its own n/K columns in parallel, and the global
// exchange phase is a bounded O(m·q + n + E) tail: an O(m·q) regret scan
// over per-type probe cores plus incremental merged-J move evaluation) —
// while at 128 cores the sharded allocation keeps at least 95% of the
// unsharded SmartBalance efficiency advantage over the vanilla balancer.
//
// The gated metric is CPU, not wall: summed per-shard SA host time plus the
// exchange phase, divided by balance passes and cores. Wall-clock depends
// on how many workers the runner machine offers; the CPU sum does not, so
// the sublinearity gate is meaningful on any CI runner.
//
// Writes BENCH_shard.json: one section per scale, an advantage section for
// the 128-core three-way comparison (vanilla / unsharded / sharded), and a
// summary whose sublinear_violations count is gated exactly (any value
// above the committed 0 fails tools/check_bench.py).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "arch/platform_loader.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "core/smart_balance.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace {

struct ScaleRow {
  int cores = 0;
  int threads = 0;
  int shards = 0;
  std::uint64_t balance_passes = 0;
  std::uint64_t shard_passes = 0;
  std::uint64_t exchange_moves = 0;
  double sa_cpu_us_per_pass = 0;        // summed per-shard SA CPU
  double exchange_us_per_pass = 0;
  double opt_exchange_us_per_core = 0;  // (SA CPU + exchange) / pass / core
  double avg_optimize_wall_us = 0;      // wall-clock of the whole phase
  double mips_per_watt = 0;
};

/// big.LITTLE 1:3 via the gen loader — the same spec grammar sbsim's
/// --platform=gen: exposes, so the bench exercises the generator end to
/// end. Counts are per cluster: 32-core clusters of 8 big + 24 LITTLE.
sb::arch::Platform make_platform(int cores) {
  const int clusters = std::max(1, cores / 32);
  const int per_cluster = cores / clusters;
  const int big = per_cluster / 4;
  return sb::arch::generate_platform(
      std::to_string(big) + "x" + std::to_string(per_cluster - big) + ":" +
      std::to_string(clusters));
}

void add_workload(sb::sim::Simulation& s, int threads) {
  // Mixed PARSEC workload touching all characterization regimes (the same
  // mix the Fig. 7 overhead harness uses).
  const char* names[] = {"swaptions", "canneal", "bodytrack", "x264_H_crew"};
  for (int i = 0; i < threads; ++i) {
    s.add_benchmark(names[i % 4], 1);
  }
}

ScaleRow measure(int cores, int shards, sb::TimeNs duration,
                 std::uint64_t seed) {
  using namespace sb;
  const auto platform = make_platform(cores);
  sim::SimulationConfig cfg;
  cfg.duration = duration;
  cfg.seed = seed;
  sim::Simulation s(platform, cfg);
  core::SmartBalanceConfig sb_cfg;
  sb_cfg.sharding.shards = shards;
  s.set_balancer(sim::smartbalance_factory(sb_cfg)(s));
  const int threads = 2 * cores;
  add_workload(s, threads);
  const auto r = s.run();

  ScaleRow row;
  row.cores = cores;
  row.threads = threads;
  row.shards = shards;
  row.balance_passes = r.balance_passes;
  row.avg_optimize_wall_us = r.avg_optimize_us;
  row.mips_per_watt = r.ips_per_watt / 1e6;
  if (const auto* policy = dynamic_cast<const core::SmartBalancePolicy*>(
          s.kernel().balancer())) {
    // One shard keeps no shard accounting: its row reads zeros.
    const core::ShardedBalancer& sharded = policy->sharded();
    row.shard_passes = sharded.shard_passes_total();
    row.exchange_moves = sharded.exchange_moves_total();
    const auto passes =
        static_cast<double>(r.balance_passes > 0 ? r.balance_passes : 1);
    row.sa_cpu_us_per_pass =
        static_cast<double>(sharded.shard_cpu_ns_total()) / 1e3 / passes;
    row.exchange_us_per_pass =
        static_cast<double>(sharded.exchange_ns_total()) / 1e3 / passes;
    row.opt_exchange_us_per_core =
        (row.sa_cpu_us_per_pass + row.exchange_us_per_pass) / cores;
  }
  return row;
}

/// 128-core efficiency under the vanilla balancer — the advantage baseline.
double measure_vanilla(int cores, sb::TimeNs duration, std::uint64_t seed) {
  using namespace sb;
  const auto platform = make_platform(cores);
  sim::SimulationConfig cfg;
  cfg.duration = duration;
  cfg.seed = seed;
  sim::Simulation s(platform, cfg);
  s.set_balancer(sim::vanilla_factory()(s));
  add_workload(s, 2 * cores);
  return s.run().ips_per_watt / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  bench::header("Sharded balancing: per-core cost vs platform scale",
                "cluster-local SA in parallel + bounded global exchange "
                "keeps per-epoch cost sublinear toward 1024 cores");

  // --- scaling sweep: optimize+exchange CPU per core ----------------------
  // One shard per 32 cores (the synthetic platforms' cluster granularity).
  const TimeNs window = opt.quick ? milliseconds(130) : milliseconds(180);
  // The simulation is deterministic per seed; only the host CPU timings
  // vary between repetitions. Keeping the minimum-cost repetition per
  // scale filters scheduler interference out of the gated metric.
  const int reps = opt.quick ? 3 : 5;
  const std::vector<int> scales = {128, 512, 1024};
  std::vector<ScaleRow> rows;
  TextTable tb({"cores", "threads", "shards", "passes", "SA cpu us/pass",
                "exchange us/pass", "us/core", "wall us/pass"});
  CsvWriter csv("fig_shard_scaling.csv",
                {"cores", "threads", "shards", "sa_cpu_us_per_pass",
                 "exchange_us_per_pass", "opt_exchange_us_per_core"});
  for (const int n : scales) {
    ScaleRow row = measure(n, n / 32, window, opt.seed);
    for (int rep = 1; rep < reps; ++rep) {
      const auto again = measure(n, n / 32, window, opt.seed);
      if (again.opt_exchange_us_per_core < row.opt_exchange_us_per_core) {
        row = again;
      }
    }
    rows.push_back(row);
    tb.add_row({std::to_string(row.cores), std::to_string(row.threads),
                std::to_string(row.shards),
                std::to_string(row.balance_passes),
                TextTable::fmt(row.sa_cpu_us_per_pass, 1),
                TextTable::fmt(row.exchange_us_per_pass, 1),
                TextTable::fmt(row.opt_exchange_us_per_core, 3),
                TextTable::fmt(row.avg_optimize_wall_us, 1)});
    csv.row({std::to_string(row.cores), std::to_string(row.threads),
             std::to_string(row.shards),
             TextTable::fmt(row.sa_cpu_us_per_pass, 2),
             TextTable::fmt(row.exchange_us_per_pass, 2),
             TextTable::fmt(row.opt_exchange_us_per_core, 4)});
  }
  std::cout << tb << "Series written to fig_shard_scaling.csv\n";

  int sublinear_violations = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].opt_exchange_us_per_core >=
        rows[i - 1].opt_exchange_us_per_core) {
      ++sublinear_violations;
      std::cout << "VIOLATION: us/core did not decrease from "
                << rows[i - 1].cores << "c to " << rows[i].cores << "c\n";
    }
  }

  // --- 128-core advantage: how much of the unsharded gain survives --------
  const TimeNs adv_window = opt.quick ? milliseconds(240) : milliseconds(360);
  const double vanilla = measure_vanilla(128, adv_window, opt.seed);
  const auto unsharded = measure(128, 0, adv_window, opt.seed);
  const auto sharded = measure(128, 4, adv_window, opt.seed);
  const double adv_unsharded = unsharded.mips_per_watt / vanilla - 1.0;
  const double adv_sharded = sharded.mips_per_watt / vanilla - 1.0;
  const double advantage_lost_pct =
      adv_unsharded > 0
          ? std::max(0.0, 100.0 * (1.0 - adv_sharded / adv_unsharded))
          : 0.0;
  std::cout << "128c advantage over vanilla: unsharded "
            << TextTable::fmt(100 * adv_unsharded, 2) << "%, sharded "
            << TextTable::fmt(100 * adv_sharded, 2) << "% ("
            << TextTable::fmt(advantage_lost_pct, 2)
            << "% of the advantage lost; budget 5%)\n";

  // --- BENCH_shard.json ---------------------------------------------------
  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_shard")
      .field("description",
             "Sharded balancing scaling sweep: optimize+exchange CPU per "
             "core per pass at 128/512/1024 cores (2 threads/core), plus "
             "the 128-core sharded-vs-unsharded advantage retention")
      .field("build", "-O2 -DNDEBUG");
  for (const auto& row : rows) {
    // Per-scale CPU cost is machine-dependent and sampled from only a few
    // passes; the binding gates are the exact sublinear_violations count
    // and the absolute advantage ceiling below, so the per-scale ratio
    // check gets a wider 50% budget instead of the CLI default.
    j.begin_object("scale_" + std::to_string(row.cores))
        .field("cores", row.cores)
        .field("threads", row.threads)
        .field("shards", row.shards)
        .field("balance_passes", row.balance_passes)
        .field("shard_passes", row.shard_passes)
        .field("exchange_moves", row.exchange_moves)
        .field("sa_cpu_us_per_pass", row.sa_cpu_us_per_pass)
        .field("exchange_us_per_pass", row.exchange_us_per_pass)
        .field("opt_exchange_us_per_core", row.opt_exchange_us_per_core)
        .field("avg_optimize_wall_us", row.avg_optimize_wall_us)
        .field("max_regress", 0.5)
        .end_object();
  }
  j.begin_object("advantage_128")
      .field("vanilla_mips_w", vanilla)
      .field("unsharded_mips_w", unsharded.mips_per_watt)
      .field("sharded_mips_w", sharded.mips_per_watt)
      .field("unsharded_advantage_pct", 100 * adv_unsharded)
      .field("sharded_advantage_pct", 100 * adv_sharded)
      .field("advantage_lost_pct", advantage_lost_pct);
  j.begin_object("max_allowed")
      .field("advantage_lost_pct", 5.0)
      .end_object();
  j.end_object();
  j.begin_object("summary")
      .field("sublinear_violations", sublinear_violations)
      .end_object();
  j.end_object();
  j.write("BENCH_shard.json");
  return sublinear_violations == 0 ? 0 : 1;
}
