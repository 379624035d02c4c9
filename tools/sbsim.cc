// sbsim — command-line driver for the SmartBalance simulator.
//
// Runs an arbitrary platform/policy/workload combination and prints the
// full metrics report; the one-stop tool for exploring the system without
// writing C++.
//
// Examples:
//   sbsim --platform=quad --policy=smartbalance --bench=bodytrack:4
//   sbsim --platform=biglittle --policy=gts --bench=canneal:8
//         --duration-ms=1000 --seed=7
//   sbsim --platform=quad --compare --bench=swaptions:2 --bench=canneal:2
//   sbsim --platform=quad --policy=smartbalance --mix=6:2 --thermal
//         --trace=run.csv
//   sbsim --platform=scaled:4 --policy=smartbalance --bench=ferret:32
//         --dvfs --governor=ondemand
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.h"
#include "arch/platform_loader.h"
#include "common/spec.h"
#include "core/predictor.h"
#include "fleet/fleet.h"
#include "obs/exports.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "os/dvfs_governor.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/simulation.h"
#include "workload/mixes.h"
#include "workload/trace_loader.h"

namespace {

using namespace sb;

/// The policy table's names joined by " | ", wrapped at 78 columns under
/// the help text's 28-column value indent.
std::string policy_names_help() {
  constexpr std::size_t kIndent = 28, kWidth = 78;
  std::string out, line;
  for (const std::string_view name : sim::policy_names()) {
    if (!line.empty() && kIndent + line.size() + 3 + name.size() > kWidth) {
      out += line + " |\n" + std::string(kIndent, ' ');
      line.clear();
    }
    line += line.empty() ? "" : " | ";
    line += name;
  }
  return out + line;
}

[[noreturn]] void usage(int code) {
  std::cout << R"(sbsim — SmartBalance heterogeneous-MPSoC simulator

  --platform=quad | biglittle | scaled:<per-type> | homogeneous:<n> |
             gen:<big>x<LITTLE>[:clusters]   synthetic large platform
                            (e.g. gen:32x96:8 = 1024 cores in 8 clusters)
  --platform-file=<desc.txt>   custom platform (see arch/platform_loader.h)
  --policy=<name>           balancing policy (default: smartbalance):
                            )" << policy_names_help() << R"(
  --compare                 run vanilla, gts*, and smartbalance side by side
                            (excludes --policy)
  --bench=<name>:<threads>  add a benchmark (repeatable); names: PARSEC
                            (bodytrack, canneal, ...), x264_{H,L}_{crew,bow},
                            IMB_{H,M,L}T{H,M,L}I
  --bench-at=<ms>:<name>:<threads>  deferred arrival
  --mix=<id>:<threads-per-member>   Table 3 mix (repeatable)
  --fleet=N[:policy[:rate]]  simulate a fleet of N nodes (each a full
                            simulation of --platform under --policy, which
                            must be smartbalance or vanilla) fed by a bursty
                            Zipf job stream at <rate> jobs/s, placed by the
                            fleet dispatch <policy>: rr | least | energy.
                            Excludes the workload flags, --compare, and the
                            node flags --audit, --thermal, a CSV --trace,
                            --dvfs, --governor, --adapt, --shards, --faults,
                            --defenses, --load-model and --save-model.
                            e.g. --fleet=8:energy:450
  --duration-ms=<n>         simulated window (default 600)
  --seed=<n>                RNG seed (default 1234)
  --dvfs                    enable 4-point OPP tables
  --governor=ondemand | performance | powersave   (requires --dvfs)
  --thermal                 enable the RC thermal model
  --trace=<file>            .json: Chrome trace-event epoch trace (open in
                            Perfetto / chrome://tracing); anything else:
                            per-core CSV time series. SB_TRACE in the
                            environment supplies a default .json path.
  --metrics                 collect the observability metrics registry
                            (embedded as "metrics" in --json output)
  --metrics=<file>          ...and also write it (merged across --compare
                            runs) as standalone JSON to <file>
  --timeseries=<file>       sample the continuous telemetry plane (J_E,
                            per-type watts/GIPS, migrations, degraded/drift,
                            SA accept rate, wake-to-run tail; fleet runs add
                            queue depth, job counters and per-node health)
                            and write the `#sb-tsdb v1` export (.json: JSON
                            rendering). Byte-identical across --jobs; watch
                            live with sbtop
  --obs-window=<ms>[:cap]   sampling cadence in simulated ms and ring
                            capacity for --timeseries/--slo (default 10)
  --slo=<spec>              burn-rate SLO objectives over the sampled
                            signals (implies sampling), e.g.
                            "p99_wake_us<2000:burn=0.02,je>55e6"; breaches
                            emit slo.breach trace instants + slo.* counters
  --slo-strict              exit with status 3 if any SLO objective ever
                            breached (requires --slo)
  --prom=<file>             write a Prometheus text-exposition snapshot of
                            the fleet metrics (fleet runs only; forces
                            --metrics, nodes labelled node="i")
  --audit=<file>            record the prediction-audit flight recorder and
                            write its packed-CSV export (merged across
                            --compare runs; see obs/audit_writer.h; analyze
                            with sbaudit)
  --adapt=<spec>            online predictor adaptation for smartbalance
                            policies (see core/adapt.h): "bias", "rls" or
                            "bias,rls"
  --shards=K[:jobs[:moves]] sharded hierarchical balancing for smartbalance
                            policies (see core/shard.h): K cluster-local SA
                            passes in parallel on <jobs> workers (0 = auto)
                            plus a global exchange of up to <moves> threads
                            per epoch (default auto). 0 and 1 both mean
                            one shard, the default path
  --faults=<spec>           deterministic sensor-fault plan (fault/
                            fault_plan.h), e.g. "noise:0.8:8,wrap:0.05"
  --defenses=auto|on|off    sensing-defense activation (default auto:
                            on exactly when --faults is non-empty)
  --thread-trace=<csv>:<name>:<count>  spawn threads from a phase-trace CSV
                            (see workload/trace_loader.h for the format)
  --replay=<csv>            replay a recorded scheduler trace (perf-sched
                            style spawn/wake/sleep/exit events; see
                            workload/sched_replay.h for the grammar) as the
                            workload; phase refs resolve relative to the
                            trace file
  --replay-ips=<x>          replay calibration (with --replay): instructions
                            per busy nanosecond when compiling the trace
                            (default 1)
  --fleet-arrivals=mmpp | replay:<csv>   fleet arrival source (with --fleet):
                            the default bursty MMPP clock, or a scheduler
                            trace whose spawn events become job arrivals
                            (looped by its span; class = hash of task name)
  --save-model=<file>       train the predictor for this platform and save it
  --load-model=<file>       use a previously saved predictor (smartbalance
                            policies)
  --json=<file>             dump the (last) run's full metrics as JSON
  --quiet                   headline numbers only
  (* gts/iks/utilaware need a big.LITTLE-style two-type platform;
   --adapt, --shards, --faults, --defenses and --load-model need a
   smartbalance policy or --compare)
)";
  std::exit(code);
}

struct Args {
  std::string platform = "quad";
  std::string platform_file;
  std::string policy = "smartbalance";
  std::string fleet;  // FleetConfig::parse spec (empty = single-node mode)
  fleet::FleetConfig fleet_cfg;  // `fleet`, parsed
  bool compare = false;
  std::vector<std::pair<std::string, int>> benches;
  std::vector<std::tuple<TimeNs, std::string, int>> arrivals;
  std::vector<std::pair<int, int>> mixes;
  TimeNs duration = milliseconds(600);
  std::uint64_t seed = 1234;
  bool dvfs = false;
  std::string governor;
  bool thermal = false;
  std::string trace;         // per-core CSV time series
  std::string chrome_trace;  // Chrome trace-event JSON (epoch tracer)
  bool metrics = false;
  std::string metrics_out;   // standalone metrics JSON file
  std::string audit;         // prediction-audit export (packed CSV)
  std::string timeseries;    // #sb-tsdb export path (CSV, .json = JSON)
  std::string obs_window;    // TimeseriesConfig::parse spec ("<ms>[:cap]")
  std::string slo;           // SloConfig::parse spec
  bool slo_strict = false;   // exit 3 when any objective breached
  std::string prom;          // Prometheus exposition snapshot (fleet only)
  std::string adapt;         // AdaptationConfig::parse spec
  std::string shards;        // ShardingConfig::parse spec
  std::string faults;        // FaultPlan::parse spec
  std::string defenses;      // auto | on | off
  core::SmartBalanceConfig smart;  // the four specs above, parsed
  obs::ObsConfig obs;              // the observability flags, parsed
  std::vector<std::tuple<std::string, std::string, int>> thread_traces;
  std::string replay;          // sched-replay trace CSV (single-node)
  std::optional<double> replay_ips;  // compile calibration (instr/ns)
  std::string fleet_arrivals;  // "mmpp" (default) or "replay:<csv>"
  std::string save_model;
  std::string load_model;
  std::string json_out;
  bool quiet = false;
};

[[noreturn]] void bad_flag(const std::invalid_argument& e) {
  std::cerr << "sbsim: " << e.what() << "\n";
  std::exit(2);
}

bool has_workload(const Args& a) {
  return !a.benches.empty() || !a.mixes.empty() || !a.arrivals.empty() ||
         !a.thread_traces.empty() || !a.replay.empty();
}

/// Exits 2 naming the first given flag of `flags`: each is one that this
/// run would read and never use.
void reject_given(std::span<const std::pair<bool, const char*>> flags,
                  std::string_view why) {
  for (const auto& [given, flag] : flags) {
    if (given) {
      std::cerr << why << flag << "\n";
      usage(2);
    }
  }
}

/// The SmartBalance specs; a malformed one throws std::invalid_argument.
core::SmartBalanceConfig sb_config(const Args& a) {
  core::SmartBalanceConfig cfg;
  if (!a.adapt.empty()) cfg.adaptation = core::AdaptationConfig::parse(a.adapt);
  if (!a.shards.empty()) cfg.sharding = core::ShardingConfig::parse(a.shards);
  if (!a.faults.empty()) cfg.fault_plan = fault::FaultPlan::parse(a.faults);
  if (a.defenses == "on") {
    cfg.defenses = core::SmartBalanceConfig::Defenses::kOn;
  } else if (a.defenses == "off") {
    cfg.defenses = core::SmartBalanceConfig::Defenses::kOff;
  } else if (!a.defenses.empty() && a.defenses != "auto") {
    std::cerr << "unknown --defenses value: " << a.defenses << "\n";
    usage(2);
  }
  return cfg;
}

/// The observability flags, for single-node and fleet runs alike. The
/// merged exports (one run block per policy under --compare, per node under
/// --fleet) are written once the runs are done; here the recorders are
/// only turned on.
obs::ObsConfig obs_config(const Args& a) {
  obs::ObsConfig cfg;
  cfg.trace = !a.chrome_trace.empty();
  cfg.metrics = a.metrics;
  cfg.audit = !a.audit.empty();
  if (!a.obs_window.empty()) {
    cfg.timeseries = obs::TimeseriesConfig::parse(a.obs_window);
  }
  cfg.timeseries.enabled = !a.timeseries.empty() || !a.slo.empty();
  if (!a.slo.empty()) cfg.slo = obs::SloConfig::parse(a.slo);
  return cfg;
}

/// Numeric fields and specs throw std::invalid_argument naming their flag;
/// parse() exits 2 on one.
Args parse_flags(int argc, char** argv) {
  Args a;
  bool policy_given = false;
  const auto threads = [](std::string_view flag, std::string_view token) {
    return static_cast<int>(
        spec::read_uint(flag, "threads", token, 1, 1 << 16));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A view into arg, which outlives every split() of it.
    auto value = [&](std::string_view prefix) {
      return std::string_view(arg).substr(prefix.size());
    };
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg.rfind("--platform=", 0) == 0) a.platform = value("--platform=");
    else if (arg.rfind("--platform-file=", 0) == 0)
      a.platform_file = value("--platform-file=");
    else if (arg.rfind("--policy=", 0) == 0) {
      a.policy = value("--policy=");
      policy_given = true;
    }
    else if (arg.rfind("--fleet=", 0) == 0) a.fleet = value("--fleet=");
    else if (arg == "--compare") a.compare = true;
    else if (arg.rfind("--bench=", 0) == 0) {
      const auto parts = spec::split(value("--bench="), ':');
      if (parts.size() != 2) usage(2);
      a.benches.emplace_back(parts[0], threads("--bench", parts[1]));
    } else if (arg.rfind("--bench-at=", 0) == 0) {
      const auto parts = spec::split(value("--bench-at="), ':');
      if (parts.size() != 3) usage(2);
      a.arrivals.emplace_back(
          milliseconds(
              spec::read_uint("--bench-at", "ms", parts[0], 0, 1 << 24)),
          parts[1], threads("--bench-at", parts[2]));
    } else if (arg.rfind("--mix=", 0) == 0) {
      const auto parts = spec::split(value("--mix="), ':');
      if (parts.size() != 2) usage(2);
      a.mixes.emplace_back(
          spec::read_uint("--mix", "mix", parts[0], 1, workload::num_mixes()),
          threads("--mix", parts[1]));
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      a.duration = milliseconds(spec::read_uint(
          "--duration-ms", "ms", value("--duration-ms="), 1, 1 << 24));
    } else if (arg.rfind("--seed=", 0) == 0) {
      a.seed = spec::read_uint("--seed", "seed", value("--seed="), 0,
                               UINT64_MAX);
    } else if (arg == "--dvfs") a.dvfs = true;
    else if (arg.rfind("--governor=", 0) == 0) a.governor = value("--governor=");
    else if (arg == "--thermal") a.thermal = true;
    else if (arg.rfind("--thread-trace=", 0) == 0) {
      const auto parts = spec::split(value("--thread-trace="), ':');
      if (parts.size() != 3) usage(2);
      a.thread_traces.emplace_back(parts[0], parts[1],
                                   threads("--thread-trace", parts[2]));
    } else if (arg.rfind("--replay=", 0) == 0) {
      a.replay = value("--replay=");
    } else if (arg.rfind("--replay-ips=", 0) == 0) {
      constexpr spec::Field kIps = {"ips", spec::Kind::kReal, 0, 1e3,
                                    spec::kRequired, spec::Range::kOpenLow};
      a.replay_ips =
          spec::read_field("--replay-ips", kIps, value("--replay-ips="));
    } else if (arg.rfind("--fleet-arrivals=", 0) == 0) {
      a.fleet_arrivals = value("--fleet-arrivals=");
    } else if (arg.rfind("--save-model=", 0) == 0) {
      a.save_model = value("--save-model=");
    } else if (arg.rfind("--load-model=", 0) == 0) {
      a.load_model = value("--load-model=");
    } else if (arg.rfind("--json=", 0) == 0) {
      a.json_out = value("--json=");
    }
    else if (arg.rfind("--trace=", 0) == 0) {
      // One flag, two formats: .json selects the epoch tracer's Chrome
      // trace-event output, anything else the legacy per-core CSV series.
      const std::string path(value("--trace="));
      if (path.ends_with(".json")) a.chrome_trace = path;
      else a.trace = path;
    }
    else if (arg == "--metrics") a.metrics = true;
    else if (arg.rfind("--metrics=", 0) == 0) {
      a.metrics_out = value("--metrics=");
      a.metrics = true;
    } else if (arg.rfind("--audit=", 0) == 0) a.audit = value("--audit=");
    else if (arg.rfind("--timeseries=", 0) == 0)
      a.timeseries = value("--timeseries=");
    else if (arg.rfind("--obs-window=", 0) == 0)
      a.obs_window = value("--obs-window=");
    else if (arg.rfind("--slo=", 0) == 0) a.slo = value("--slo=");
    else if (arg == "--slo-strict") a.slo_strict = true;
    else if (arg.rfind("--prom=", 0) == 0) a.prom = value("--prom=");
    else if (arg.rfind("--adapt=", 0) == 0) a.adapt = value("--adapt=");
    else if (arg.rfind("--shards=", 0) == 0) a.shards = value("--shards=");
    else if (arg.rfind("--faults=", 0) == 0) a.faults = value("--faults=");
    else if (arg.rfind("--defenses=", 0) == 0)
      a.defenses = value("--defenses=");
    else if (arg == "--quiet") a.quiet = true;
    else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }
  if (a.chrome_trace.empty()) {
    if (const char* env = std::getenv("SB_TRACE")) a.chrome_trace = env;
  }
  if (!a.fleet.empty()) {
    // The fleet generates its own workload and configures its own nodes;
    // the single-node flags would silently do nothing, so reject each one.
    const std::pair<bool, const char*> single_node[] = {
        {!a.benches.empty(), "--bench"},
        {!a.mixes.empty(), "--mix"},
        {!a.arrivals.empty(), "--bench-at"},
        {!a.thread_traces.empty(), "--thread-trace"},
        {!a.replay.empty(), "--replay"},
        {a.compare, "--compare"},
        {!a.audit.empty(), "--audit"},
        {a.thermal, "--thermal"},
        {!a.trace.empty(), "--trace (per-core CSV)"},
        {a.dvfs, "--dvfs"},
        {!a.governor.empty(), "--governor"},
        {!a.adapt.empty(), "--adapt"},
        {!a.shards.empty(), "--shards"},
        {!a.faults.empty(), "--faults"},
        {!a.defenses.empty(), "--defenses"},
        {!a.load_model.empty(), "--load-model"},
        {!a.save_model.empty(), "--save-model"},
    };
    reject_given(single_node,
                 "--fleet generates its own job stream and nodes; it cannot "
                 "be combined with ");
    a.fleet_cfg = fleet::FleetConfig::parse(a.fleet);
  } else {
    if (!has_workload(a) && a.save_model.empty()) {
      std::cerr << "no workload given (need --bench/--mix/--bench-at/"
                   "--thread-trace/--replay/--fleet)\n";
      usage(2);
    }
    if (a.compare && policy_given) {
      std::cerr << "--compare runs its own policy list; it cannot be "
                   "combined with --policy\n";
      usage(2);
    }
    (void)sim::policy_factory(a.policy);  // throws naming the valid ones
    if (!a.compare && !a.policy.starts_with("smartbalance")) {
      // Only SmartBalance reads these; a baseline would silently ignore them.
      const std::pair<bool, const char*> smart_only[] = {
          {!a.adapt.empty(), "--adapt"},
          {!a.shards.empty(), "--shards"},
          {!a.faults.empty(), "--faults"},
          {!a.defenses.empty(), "--defenses"},
          {!a.load_model.empty(), "--load-model"},
      };
      reject_given(smart_only, "--policy=" + a.policy +
                                   " runs no SmartBalance; it cannot be "
                                   "combined with ");
    }
    a.smart = sb_config(a);
  }
  if (a.replay_ips && a.replay.empty()) {
    std::cerr << "--replay-ips only applies with --replay\n";
    usage(2);
  }
  if (!a.fleet_arrivals.empty() && a.fleet.empty()) {
    std::cerr << "--fleet-arrivals only applies to --fleet runs\n";
    usage(2);
  }
  if (!a.prom.empty() && a.fleet.empty()) {
    std::cerr << "--prom only applies to --fleet runs\n";
    usage(2);
  }
  if (a.slo_strict && a.slo.empty()) {
    std::cerr << "--slo-strict requires --slo\n";
    usage(2);
  }
  if (!a.obs_window.empty() && a.timeseries.empty() && a.slo.empty()) {
    std::cerr << "--obs-window requires --timeseries or --slo\n";
    usage(2);
  }
  a.obs = obs_config(a);
  return a;
}

Args parse(int argc, char** argv) {
  try {
    return parse_flags(argc, argv);
  } catch (const std::invalid_argument& e) {
    bad_flag(e);
  }
}

arch::Platform make_platform(const std::string& desc) {
  if (desc == "quad") return arch::Platform::quad_heterogeneous();
  if (desc == "biglittle") return arch::Platform::octa_big_little();
  if (desc.rfind("gen:", 0) == 0) {
    return arch::generate_platform(desc.substr(4));
  }
  const auto parts = spec::split(desc, ':');
  if (parts.size() == 2 &&
      (parts[0] == "scaled" || parts[0] == "homogeneous")) {
    int n = 0;
    try {
      n = static_cast<int>(
          spec::read_uint("--platform", "count", parts[1], 1, kMaxCores));
    } catch (const std::invalid_argument& e) {
      bad_flag(e);
    }
    return parts[0] == "scaled"
               ? arch::Platform::scaled_heterogeneous(n)
               : arch::Platform::homogeneous(arch::medium_core(), n);
  }
  std::cerr << "unknown platform: " << desc << "\n";
  usage(2);
}

/// The export files the flags name (see obs::write_exports).
obs::ExportPaths export_paths(const Args& a) {
  return {.trace = a.chrome_trace,
          .audit = a.audit,
          .timeseries = a.timeseries,
          .metrics = a.metrics_out,
          .prometheus = a.prom};
}

/// Total SLO breach transitions across a merged run set (0 without --slo).
std::uint64_t slo_breaches(const std::vector<const obs::RunObs*>& runs) {
  std::uint64_t total = 0;
  for (const obs::RunObs* r : runs) {
    if (r == nullptr) continue;
    const auto it = r->metrics.counters().find("slo.breaches");
    if (it != r->metrics.counters().end()) total += it->second.value;
  }
  return total;
}

int strict_exit(const std::vector<const obs::RunObs*>& runs) {
  const std::uint64_t breaches = slo_breaches(runs);
  if (breaches == 0) return 0;
  std::cerr << "sbsim: --slo-strict: " << breaches
            << " SLO breach(es) during the run\n";
  return 3;
}

sim::SimulationResult run_once(const Args& a, const arch::Platform& platform,
                               const std::string& policy,
                               const sim::BalancerFactory& factory) {
  sim::SimulationConfig cfg;
  cfg.duration = a.duration;
  cfg.seed = a.seed;
  cfg.label = "sbsim";
  cfg.kernel.enable_dvfs = a.dvfs;
  cfg.thermal_enabled = a.thermal;
  cfg.trace_path = a.trace;
  cfg.obs = a.obs;
  sim::Simulation s(platform, cfg);
  s.set_balancer(factory(s));
  if (!a.governor.empty()) {
    if (a.governor == "ondemand") {
      s.kernel().set_governor(std::make_unique<os::OndemandGovernor>());
    } else if (a.governor == "performance") {
      s.kernel().set_governor(std::make_unique<os::PerformanceGovernor>());
    } else if (a.governor == "powersave") {
      s.kernel().set_governor(std::make_unique<os::PowersaveGovernor>());
    } else {
      std::cerr << "unknown governor: " << a.governor << "\n";
      usage(2);
    }
  }
  for (const auto& [name, threads] : a.benches) s.add_benchmark(name, threads);
  for (const auto& [id, per] : a.mixes) s.add_mix(id, per);
  for (const auto& [at, name, threads] : a.arrivals) {
    s.add_benchmark_at(at, name, threads);
  }
  for (const auto& [path, name, count] : a.thread_traces) {
    const auto tb = workload::load_thread_trace_file(path, name);
    for (int i = 0; i < count; ++i) {
      auto copy = tb;
      copy.name = name + "/" + std::to_string(i);
      s.add_thread(std::move(copy));
    }
  }
  if (!a.replay.empty()) {
    const auto trace = workload::load_replay_trace_file(a.replay);
    workload::ReplayCompileOptions opts;
    if (a.replay_ips) opts.ips_hint = *a.replay_ips;
    const std::size_t slash = a.replay.find_last_of('/');
    if (slash != std::string::npos) opts.base_dir = a.replay.substr(0, slash);
    s.add_replay(workload::compile_replay_schedule(trace, opts));
  }
  auto r = s.run();
  r.policy = policy;
  return r;
}

int run_fleet(const Args& a, const arch::Platform& platform) {
  fleet::FleetConfig cfg = a.fleet_cfg;
  cfg.duration = a.duration;
  cfg.seed = a.seed;
  cfg.node_policy = a.policy;  // validate() rejects anything but
                               // smartbalance/vanilla
  cfg.obs = a.obs;
  cfg.node_obs = a.metrics;
  if (!a.prom.empty()) {
    // The exposition snapshot reads the metrics registries; collect them
    // (and the per-node ones, for node="i" labels) even without --metrics.
    cfg.obs.metrics = true;
    cfg.node_obs = true;
  }
  if (!a.fleet_arrivals.empty() && a.fleet_arrivals != "mmpp") {
    constexpr std::string_view kReplay = "replay:";
    if (a.fleet_arrivals.rfind(kReplay, 0) != 0 ||
        a.fleet_arrivals.size() == kReplay.size()) {
      std::cerr << "--fleet-arrivals: want mmpp or replay:<file>, got '"
                << a.fleet_arrivals << "'\n";
      usage(2);
    }
    cfg.arrival_replay = a.fleet_arrivals.substr(kReplay.size());
  }
  fleet::FleetSimulation f(cfg, {platform});
  const fleet::FleetResult r = f.run();

  std::cout << "fleet: " << r.nodes << " nodes (" << a.platform << ", "
            << r.node_policy << "), dispatch=" << r.dispatch_policy
            << ", " << to_millis(r.simulated) << " ms simulated\n"
            << "jobs: " << r.jobs_arrived << " arrived, "
            << r.jobs_dispatched << " dispatched, " << r.jobs_completed
            << " completed, " << r.jobs_deferred << " deferrals\n"
            << "fleet J_E: " << r.je_inst_per_joule / 1e6
            << " M inst/J  (" << r.instructions / 1e9 << " G inst, "
            << r.energy_j << " J)\n";
  if (!a.quiet) {
    auto tail = [](const char* name, const fleet::LatencyTail& t) {
      std::cout << name << ": p50 " << t.p50_ns / 1e6 << " ms, p95 "
                << t.p95_ns / 1e6 << " ms, p99 " << t.p99_ns / 1e6
                << " ms (n=" << t.count << ")\n";
    };
    tail("queue", r.queue);
    tail("wake-to-run", r.wake);
    tail("sojourn", r.sojourn);
    std::cout << "p99 arrival-to-run: " << r.p99_dispatch_to_run_ns / 1e6
              << " ms\n";
  }

  // Observability exports: the fleet run is pid 0, nodes are pid 1..N.
  std::vector<const obs::RunObs*> runs;
  if (r.obs) runs.push_back(r.obs.get());
  for (const auto& n : r.node_obs) runs.push_back(n.get());
  obs::write_exports(export_paths(a), runs, std::cout);
  if (!a.json_out.empty()) {
    std::ofstream js(a.json_out);
    if (!js) throw std::runtime_error("cannot write " + a.json_out);
    fleet::write_fleet_json(js, r);
    js << '\n';
    std::cout << "metrics written to " << a.json_out << "\n";
  }
  if (a.slo_strict) return strict_exit(runs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const auto platform = a.platform_file.empty()
                              ? make_platform(a.platform)
                              : arch::load_platform_file(a.platform_file);

    if (!a.fleet.empty()) return run_fleet(a, platform);

    if (!a.save_model.empty()) {
      sim::Simulation probe(platform, sim::SimulationConfig{});
      const auto model =
          sim::train_default_model(probe.perf_model(), probe.power_model());
      model.save_to_file(a.save_model);
      std::cout << "trained predictor saved to " << a.save_model << "\n";
      if (!has_workload(a)) return 0;
    }

    std::vector<std::string> policies;
    if (a.compare) {
      policies = {"vanilla", "smartbalance"};
      if (platform.num_types() == 2) policies.insert(policies.begin() + 1, "gts");
    } else {
      policies = {a.policy};
    }

    std::optional<core::PredictorModel> model;
    if (!a.load_model.empty()) {
      model = core::PredictorModel::load_from_file(a.load_model);
    }
    std::vector<sim::SimulationResult> results;
    for (const auto& p : policies) {
      results.push_back(
          run_once(a, platform, p, sim::policy_factory(p, a.smart, model)));
      if (a.quiet) {
        const auto& r = results.back();
        std::cout << r.policy << ": " << r.ips_per_watt / 1e6 << " MIPS/W ("
                  << r.ips / 1e9 << " GIPS, " << r.watts << " W)\n";
      } else {
        sim::print_result(std::cout, results.back());
        if (a.thermal && !results.back().final_temp_c.empty()) {
          std::cout << "peak temperature: " << results.back().max_temp_c
                    << " C\n";
        }
        std::cout << '\n';
      }
    }
    // Merged per-policy observability exports: run index = policy order.
    std::vector<const obs::RunObs*> runs;
    for (auto& r : results) {
      if (r.obs) {
        r.obs->run = static_cast<int>(runs.size());
        r.obs->label = r.policy;
        runs.push_back(r.obs.get());
      }
    }
    obs::write_exports(export_paths(a), runs, std::cout);
    if (!a.json_out.empty()) {
      std::ofstream js(a.json_out);
      if (!js) throw std::runtime_error("cannot write " + a.json_out);
      sim::write_json(js, results.back());
      std::cout << "metrics written to " << a.json_out << "\n";
    }
    if (results.size() > 1) {
      const double gain =
          100.0 * (sim::efficiency_ratio(results.back(), results.front()) - 1);
      std::cout << results.back().policy << " vs " << results.front().policy
                << ": " << gain << " % energy-efficiency gain\n";
    }
    if (a.slo_strict) return strict_exit(runs);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sbsim: " << e.what() << "\n";
    return 1;
  }
}
