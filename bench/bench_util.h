// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "obs/audit_writer.h"
#include "obs/trace.h"
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

  /// Runner honoring --jobs (or SB_JOBS / hardware concurrency when unset).
  sim::ExperimentRunner runner() const {
    sim::ExperimentRunner::Config cfg;
    cfg.threads = jobs;
    return sim::ExperimentRunner(cfg);
  }
};

/// One figure bar: the same workload under the baseline policy and under
/// SmartBalance with both objectives — Eq. 11 verbatim (sum of per-core
/// IPS/W ratios) and this library's global IPS/W objective (see
/// DESIGN.md §5 for why Eq. 11 alone under-determines the allocation).
struct GainRow {
  std::string label;
  double baseline_mips_w = 0;
  double smart_eq11_mips_w = 0;
  double smart_mips_w = 0;       // global objective (library default)
  double gain_eq11_pct = 0;
  double gain_pct = 0;
  std::uint64_t migrations = 0;  // global-objective run
};

namespace detail {
inline GainRow make_gain_row(const std::string& label,
                             const sim::SimulationResult& baseline,
                             const sim::SimulationResult& eq11,
                             const sim::SimulationResult& global) {
  GainRow row;
  row.label = label;
  row.baseline_mips_w = baseline.ips_per_watt / 1e6;
  row.smart_eq11_mips_w = eq11.ips_per_watt / 1e6;
  row.smart_mips_w = global.ips_per_watt / 1e6;
  row.gain_eq11_pct = 100.0 * (sim::efficiency_ratio(eq11, baseline) - 1.0);
  row.gain_pct = 100.0 * (sim::efficiency_ratio(global, baseline) - 1.0);
  row.migrations = global.migrations;
  return row;
}
}  // namespace detail

/// A figure sweep: queue every bar up front, execute the whole batch
/// through one ExperimentRunner (3 simulations per bar — baseline,
/// SmartBalance Eq. 11, SmartBalance global), and read the rows back in
/// submission order. Parallelism spans the entire sweep, so wall-clock
/// approaches cpu_time / threads even when single bars are imbalanced.
class GainSweep {
 public:
  GainSweep(const arch::Platform& platform, const sim::SimulationConfig& cfg,
            const core::SmartBalanceConfig& smart = core::SmartBalanceConfig())
      : platform_(platform),
        cfg_(cfg),
        // One factory pair for the whole sweep: each SmartBalance factory
        // caches its own trained predictor model, so sharing it trains
        // once per platform shape instead of once per bar (training is
        // deterministic, so results are unchanged — just faster).
        eq11_(sim::policy_factory("smartbalance-eq11", smart)),
        global_(sim::policy_factory("smartbalance", smart)) {}

  /// Queues one bar; returns its row index in run()'s output.
  std::size_t add(const std::string& label,
                  const sim::WorkloadBuilder& workload,
                  const sim::BalancerFactory& baseline) {
    const std::size_t index = labels_.size();
    labels_.push_back(label);
    auto push = [&](const std::string& policy_name,
                    const sim::BalancerFactory& policy) {
      sim::ExperimentSpec spec;
      spec.platform = platform_;
      spec.cfg = cfg_;
      spec.workload = workload;
      spec.policy = policy;
      spec.label = label;
      spec.policy_name = policy_name;
      specs_.push_back(std::move(spec));
    };
    push("baseline", baseline);
    push("smartbalance-eq11", eq11_);
    push("smartbalance", global_);
    return index;
  }

  /// Executes all queued bars; one GainRow per add(), in add() order.
  /// Throws std::runtime_error if any simulation failed.
  std::vector<GainRow> run(const sim::ExperimentRunner& runner) {
    const auto batch = runner.run(specs_);
    summary_ = batch.summary;
    obs_.clear();
    for (const auto& r : batch.runs) {
      if (!r.ok()) {
        throw std::runtime_error("sweep run '" + r.label +
                                 "' failed: " + r.error);
      }
      // Runs are already stamped with their submission index by the
      // ExperimentRunner, so the merged trace/metrics are --jobs-invariant.
      if (r.result.obs) obs_.push_back(r.result.obs);
    }
    std::vector<GainRow> rows;
    rows.reserve(labels_.size());
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      rows.push_back(detail::make_gain_row(
          labels_[i], batch.runs[3 * i].result, batch.runs[3 * i + 1].result,
          batch.runs[3 * i + 2].result));
    }
    return rows;
  }

  /// Batch accounting of the last run() (threads, wall/cpu ms, speedup).
  const sim::BatchSummary& summary() const { return summary_; }

  /// Writes the last run()'s merged Chrome trace-event JSON. Returns false
  /// (and writes nothing) if no run carried a trace.
  bool write_trace(const std::string& path) const {
    std::vector<const obs::RunObs*> runs;
    for (const auto& o : obs_) {
      if (o && o->trace_enabled) runs.push_back(o.get());
    }
    if (runs.empty()) return false;
    obs::write_chrome_trace_file(path, runs);
    return true;
  }

  /// Writes the last run()'s merged prediction-audit export. Returns false
  /// (and writes nothing) if no run carried the recorder.
  bool write_audit(const std::string& path) const {
    std::vector<const obs::RunObs*> runs;
    for (const auto& o : obs_) {
      if (o && o->audit_enabled) runs.push_back(o.get());
    }
    if (runs.empty()) return false;
    obs::write_audit_file(path, runs);
    return true;
  }

  /// Merges the metric registries of the last run() across all runs
  /// (deterministic: merged in submission order).
  obs::MetricsRegistry merged_metrics() const {
    std::vector<const obs::RunObs*> runs;
    for (const auto& o : obs_) {
      if (o) runs.push_back(o.get());
    }
    return obs::merge_metrics(runs);
  }

 private:
  arch::Platform platform_;
  sim::SimulationConfig cfg_;
  sim::BalancerFactory eq11_;
  sim::BalancerFactory global_;
  std::vector<std::string> labels_;
  std::vector<sim::ExperimentSpec> specs_;
  sim::BatchSummary summary_;
  std::vector<std::shared_ptr<obs::RunObs>> obs_;
};

inline void header(const std::string& title, const std::string& paper_claim) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Paper reference: " << paper_claim << "\n"
            << "==============================================================\n";
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

}  // namespace sb::bench
