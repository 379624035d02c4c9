// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/spec.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "fleet/fleet.h"
#include "obs/exports.h"
#include "sim/experiment.h"
#include "sim/runner.h"

namespace sb::bench {

/// Command-line knobs common to all harnesses:
///   --quick          shorter simulations (CI smoke mode)
///   --seed=N         override the experiment seed
///   --duration-ms=N  override simulated window
///   --jobs=N         worker threads for the sweep (1 = sequential;
///                    default: SB_JOBS env var, else hardware concurrency)
///   --faults=SPEC    fault plan for SmartBalance runs, e.g.
///                    "wrap:0.05,noise:0.02:3" or "uniform:0.05"
///                    (see fault/fault_plan.h). A zero-rate or empty spec is
///                    exactly the default (faultless, undefended) pipeline.
///   --fault-seed=N   seed for the fault plan's injection hashes
///   --no-defense     keep the sensing defenses off even under faults
///                    (ablation arm of the resilience sweep)
///   --trace=FILE     write the sweep's merged epoch trace as Chrome
///                    trace-event JSON (SB_TRACE env var is the default)
///   --metrics        collect and print the merged metrics registry
///   --metrics-json=FILE  write the merged metrics registry as JSON
///   --audit=FILE     record the prediction-audit flight recorder on every
///                    run and write the merged packed-CSV export (analyze
///                    with tools/sbaudit)
struct Options {
  bool quick = false;
  std::uint64_t seed = 1234;
  TimeNs duration = milliseconds(600);
  int jobs = 0;  // 0 = ExperimentRunner default (SB_JOBS / hw concurrency)
  std::string faults;
  std::uint64_t fault_seed = 0xfa517u;
  bool no_defense = false;
  std::string trace;  // Chrome trace-event JSON output path (empty = off)
  bool metrics = false;
  std::string metrics_json;  // merged metrics registry JSON (empty = off)
  std::string audit;  // merged prediction-audit export (empty = off)

  static Options parse(int argc, char** argv) {
    Options o;
    try {
      for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--quick") {
          o.quick = true;
          o.duration = milliseconds(240);
        } else if (a.rfind("--seed=", 0) == 0) {
          o.seed =
              spec::read_uint("--seed", "seed", a.substr(7), 0, UINT64_MAX);
        } else if (a.rfind("--duration-ms=", 0) == 0) {
          o.duration = milliseconds(
              spec::read_uint("--duration-ms", "ms", a.substr(14), 1, 1 << 24));
        } else if (a.rfind("--jobs=", 0) == 0) {
          o.jobs = static_cast<int>(
              spec::read_uint("--jobs", "jobs", a.substr(7), 0, 4096));
        } else if (a.rfind("--faults=", 0) == 0) {
          o.faults = a.substr(9);
        } else if (a.rfind("--fault-seed=", 0) == 0) {
          o.fault_seed = spec::read_uint("--fault-seed", "seed", a.substr(13),
                                         0, UINT64_MAX);
        } else if (a == "--no-defense") {
          o.no_defense = true;
        } else if (a.rfind("--trace=", 0) == 0) {
          o.trace = a.substr(8);
        } else if (a == "--metrics") {
          o.metrics = true;
        } else if (a.rfind("--metrics-json=", 0) == 0) {
          o.metrics_json = a.substr(15);
          o.metrics = true;
        } else if (a.rfind("--audit=", 0) == 0) {
          o.audit = a.substr(8);
        } else if (a == "--help" || a == "-h") {
          std::cout << "options: --quick --seed=N --duration-ms=N --jobs=N "
                       "--faults=SPEC --fault-seed=N --no-defense "
                       "--trace=FILE --metrics --metrics-json=FILE "
                       "--audit=FILE\n";
          std::exit(0);
        } else {
          std::cerr << "unknown option: " << a << "\n";
          std::exit(2);
        }
      }
      (void)o.fault_plan();  // reject a bad --faults spec up front
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      std::exit(2);
    }
    if (o.trace.empty()) {
      if (const char* env = std::getenv("SB_TRACE")) o.trace = env;
    }
    return o;
  }

  /// Applies the observability flags to an observability config (no-op
  /// when none of --trace/--metrics/--audit was given — the bit-identical
  /// path).
  void apply_obs(obs::ObsConfig& cfg) const {
    cfg.trace = cfg.trace || !trace.empty();
    cfg.metrics = cfg.metrics || metrics;
    cfg.audit = cfg.audit || !audit.empty();
  }

  /// The fault plan requested on the command line ("uniform:R" expands to
  /// FaultPlan::uniform(R); empty/zero-rate specs yield an empty plan).
  fault::FaultPlan fault_plan() const {
    if (faults.rfind("uniform:", 0) == 0) {
      constexpr spec::Field kRate = {"rate", spec::Kind::kReal, 0, 1};
      return fault::FaultPlan::uniform(
          spec::read_field("--faults uniform", kRate, faults.substr(8)),
          fault_seed);
    }
    return fault::FaultPlan::parse(faults, fault_seed);
  }

  /// SmartBalance config honoring --faults / --no-defense. With neither
  /// flag this is exactly core::SmartBalanceConfig() — the bit-identical
  /// golden-figure path.
  core::SmartBalanceConfig smart_config() const {
    core::SmartBalanceConfig cfg;
    cfg.fault_plan = fault_plan();
    if (no_defense) {
      cfg.defenses = core::SmartBalanceConfig::Defenses::kOff;
    }
    return cfg;
  }

  /// Exits with status 2, naming the flag, when a flag is given that a
  /// fleet harness would read and drop: a fleet records no prediction
  /// audit and builds its nodes' SmartBalance itself, so it honors neither
  /// --audit nor --faults nor --no-defense (sbsim --fleet rejects the same
  /// flags).
  void reject_fleet_unsupported(const char* harness) const {
    const char* flag = !audit.empty()    ? "--audit"
                       : !faults.empty() ? "--faults"
                       : no_defense      ? "--no-defense"
                                         : nullptr;
    if (flag == nullptr) return;
    std::cerr << harness << ": the fleet runs no prediction audit and no "
              << "fault plan; it cannot be combined with " << flag << "\n";
    std::exit(2);
  }

  /// Runner honoring --jobs (or SB_JOBS / hardware concurrency when unset).
  sim::ExperimentRunner runner() const {
    sim::ExperimentRunner::Config cfg;
    cfg.threads = jobs;
    return sim::ExperimentRunner(cfg);
  }

  /// Writes the exports that --trace, --audit and --metrics-json name
  /// (obs::write_exports), or prints the merged registry for a bare
  /// --metrics. Returns the exit status: 1, with the path named on stderr,
  /// when a file cannot be written.
  int write_exports(const std::vector<const obs::RunObs*>& runs) const {
    obs::ExportPaths paths;
    paths.trace = trace;
    paths.audit = audit;
    paths.metrics = metrics_json;
    try {
      obs::write_exports(paths, runs, std::cout);
    } catch (const std::runtime_error& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    if (metrics && metrics_json.empty()) {
      std::cout << "metrics: ";
      obs::merge_metrics(runs).write_json(std::cout);
      std::cout << "\n";
    }
    return 0;
  }
};

inline void header(const std::string& title, const std::string& paper_claim) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Paper reference: " << paper_claim << "\n"
            << "==============================================================\n";
}

/// Collects one fleet run's fleet and node records for --trace and
/// --metrics-json. A fleet numbers its records from 0, so they are
/// restamped past the `base` records of earlier runs, keeping one lane per
/// run in the merged export, and `base` advances by the fleet's nodes + 1.
/// A run that recorded nothing changes neither `base` nor `out`.
inline void append_fleet_obs(const fleet::FleetResult& r, int nodes,
                             int& base,
                             std::vector<std::shared_ptr<obs::RunObs>>& out) {
  if (!r.obs && r.node_obs.empty()) return;
  if (r.obs) {
    r.obs->run += base;
    out.push_back(r.obs);
  }
  for (const auto& o : r.node_obs) {
    o->run += base;
    out.push_back(o);
  }
  base += nodes + 1;
}

/// One-line batch accounting ("N runs on T threads ...") for sweep benches.
inline void print_batch_summary(const sim::BatchSummary& s) {
  const double sp = s.wall_ms > 0 ? s.speedup() : 0.0;
  std::cout << "Sweep: " << s.total << " simulations on " << s.threads
            << " thread(s), " << static_cast<long>(s.wall_ms)
            << " ms wall (" << static_cast<long>(s.cpu_ms)
            << " ms sequential-equivalent, "
            << static_cast<double>(static_cast<long>(sp * 10 + 0.5)) / 10.0
            << "x speedup)\n";
  if (s.failed > 0) std::cout << "WARNING: " << s.failed << " runs failed\n";
}

/// How a gain figure reports its bars: Figs. 4a, 4b and 5 each compare
/// one baseline policy against SmartBalance under both objectives — Eq. 11
/// verbatim (sum of per-core IPS/W ratios) and this library's global IPS/W
/// objective (see DESIGN.md §5 for why Eq. 11 alone under-determines the
/// allocation).
struct GainFigure {
  std::string csv;  // series file, named again in the footer
  /// The leading key columns as {table header, CSV header}; each bar's key
  /// cells fill them.
  std::vector<std::pair<std::string, std::string>> keys;
  std::string baseline;  // "vanilla" -> "vanilla MIPS/W", "vanilla_mips_w"
  std::string paper;     // the paper's average gain, e.g. "50.02 %"
};

/// A gain-figure sweep: queue every bar up front, execute the whole batch
/// through one ExperimentRunner (3 simulations per bar — baseline,
/// SmartBalance Eq. 11, SmartBalance global), and report the bars in
/// submission order. Parallelism spans the entire sweep, so wall-clock
/// approaches cpu_time / threads even when single bars are imbalanced.
class GainSweep {
 public:
  /// A sweep on `platform` under the harness flags: --duration-ms, --seed,
  /// --jobs, the observability flags and, for SmartBalance, --faults and
  /// --no-defense.
  GainSweep(const arch::Platform& platform, const Options& opt)
      : platform_(platform),
        opt_(opt),
        // One factory pair for the whole sweep: each SmartBalance factory
        // caches its own trained predictor model, so sharing it trains
        // once per platform shape instead of once per bar (training is
        // deterministic, so results are unchanged — just faster).
        eq11_(sim::policy_factory("smartbalance-eq11", opt.smart_config())),
        global_(sim::policy_factory("smartbalance", opt.smart_config())) {
    cfg_.duration = opt.duration;
    cfg_.seed = opt.seed;
    opt.apply_obs(cfg_.obs);
  }

  /// Queues one bar. `key` holds its key cells; the first labels its runs.
  void add(std::vector<std::string> key, const sim::WorkloadBuilder& workload,
           const sim::BalancerFactory& baseline) {
    auto push = [&](const std::string& policy_name,
                    const sim::BalancerFactory& policy) {
      sim::ExperimentSpec spec;
      spec.platform = platform_;
      spec.cfg = cfg_;
      spec.workload = workload;
      spec.policy = policy;
      spec.label = key.front();
      spec.policy_name = policy_name;
      specs_.push_back(std::move(spec));
    };
    push("baseline", baseline);
    push("smartbalance-eq11", eq11_);
    push("smartbalance", global_);
    keys_.push_back(std::move(key));
  }

  /// Runs every queued bar, then prints the batch summary and the figure's
  /// table, writes its CSV, prints the average gains and writes the exports
  /// the flags name. Returns the exit status (Options::write_exports).
  /// Throws std::runtime_error if any simulation failed.
  int report(const GainFigure& fig) const {
    const auto batch = opt_.runner().run(specs_);
    // Runs are stamped with their submission index by the runner, so the
    // merged exports are --jobs-invariant.
    std::vector<const obs::RunObs*> runs;
    for (const auto& r : batch.runs) {
      if (!r.ok()) {
        throw std::runtime_error("sweep run '" + r.label +
                                 "' failed: " + r.error);
      }
      if (r.result.obs) runs.push_back(r.result.obs.get());
    }
    print_batch_summary(batch.summary);

    std::string baseline_csv = fig.baseline + "_mips_w";
    for (char& c : baseline_csv) c = static_cast<char>(std::tolower(c));
    std::vector<std::string> head, csv_head;
    for (const auto& [table_name, csv_name] : fig.keys) {
      head.push_back(table_name);
      csv_head.push_back(csv_name);
    }
    head.insert(head.end(), {fig.baseline + " MIPS/W", "SB(Eq.11)",
                             "SB(global)", "gain(Eq.11) %", "gain(global) %"});
    csv_head.insert(csv_head.end(),
                    {baseline_csv, "sb_eq11_mips_w", "sb_global_mips_w",
                     "gain_eq11_pct", "gain_global_pct"});
    TextTable table(head);
    CsvWriter csv(fig.csv, csv_head);
    RunningStats gains, gains_eq11;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const auto& base = batch.runs[3 * i].result;
      const auto& eq11 = batch.runs[3 * i + 1].result;
      const auto& global = batch.runs[3 * i + 2].result;
      const double values[] = {
          base.ips_per_watt / 1e6, eq11.ips_per_watt / 1e6,
          global.ips_per_watt / 1e6,
          100.0 * (sim::efficiency_ratio(eq11, base) - 1.0),
          100.0 * (sim::efficiency_ratio(global, base) - 1.0)};
      std::vector<std::string> cells = keys_[i], csv_cells = keys_[i];
      for (const double v : values) {
        cells.push_back(TextTable::fmt(v, 1));
        csv_cells.push_back(TextTable::fmt(v, 3));
      }
      table.add_row(std::move(cells));
      csv.row(csv_cells);
      gains_eq11.add(values[3]);
      gains.add(values[4]);
    }
    std::cout << table << "\nAverage gain over " << fig.baseline
              << " (paper: " << fig.paper << "):\n"
              << "  Eq. 11 objective (paper-faithful): "
              << TextTable::fmt(gains_eq11.mean(), 1) << " %\n"
              << "  global IPS/W objective (default):  "
              << TextTable::fmt(gains.mean(), 1) << " %  [min "
              << TextTable::fmt(gains.min(), 1) << " %, max "
              << TextTable::fmt(gains.max(), 1) << " %]\n"
              << "Series written to " << fig.csv << "\n";
    return opt_.write_exports(runs);
  }

 private:
  arch::Platform platform_;
  Options opt_;
  sim::SimulationConfig cfg_;
  sim::BalancerFactory eq11_;
  sim::BalancerFactory global_;
  std::vector<std::vector<std::string>> keys_;
  std::vector<sim::ExperimentSpec> specs_;
};

}  // namespace sb::bench
