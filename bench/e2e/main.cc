// sb_e2e — end-to-end benchmark of the SmartBalance simulator.
//
//   sb_e2e --workload=<name> [--seed=N] [--seconds=S] [--traced] [--smoke]
//          [--out-dir=DIR] [--chrome-trace=FILE] [--commit=SHA]
//
// Runs one pinned workload (README.md) in passes until --seconds have gone
// by, prints every metric by name with its unit, checks the outputs and
// ends with one JSON line {"correct","attempted","failed","metrics"}.
// Untraced, the JSON carries the end-to-end metrics. With --traced it
// carries the per-layer attribution: every untraced pass is followed by one
// with the metrics registry on, and probes outside the passes time the
// model layers. The exit status is non-zero when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/smart_balance.h"
#include "e2e.h"

#ifndef SB_E2E_COMPILER
#define SB_E2E_COMPILER "unknown"
#endif
#ifndef SB_E2E_FLAGS
#define SB_E2E_FLAGS "unknown"
#endif

namespace {

using namespace sb;
using namespace sb::e2e;

// The metrics of the final JSON line, in order; BENCHMARK.json lists the
// same names. The rest ("info" lines and workload-specific layer lines) is
// printed but not gated: every gated metric must exist for every workload.
const std::vector<std::string> kEndToEnd = {
    "sim_speed",     "setup_s",    "peak_rss_mb",
    "mips_per_watt", "gain_ratio", "epoch_overhead_pct"};
const std::vector<std::string> kPerLayer = {
    "sim.train_ms",          "sim.populate_ms",
    "sim.unattributed_pct",  "sim.trace_overhead_pct",
    "os.self_ns_per_sim_ms", "os.vanilla_ns_per_sim_ms",
    "os.ns_per_switch",      "os.switches_per_sim_s",
    "os.migrations_per_sim_s", "perf.evaluate_ns",
    "power.busy_power_ns",   "core.sense_us_mean",
    "core.predict_us_mean",  "core.optimize_us_mean",
    "core.predict_us_p99",   "core.optimize_us_p99",
    "core.sa_ns_per_iter",   "core.sa_iters_per_pass",
    "core.sa_improved_ratio", "core.sa_worse_accept_ratio",
    "core.migrations_per_pass"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1234;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string chrome_trace;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "%s\nusage: sb_e2e --workload=<parsec_sweep|manycore_fig7|"
               "interactive_observed|fleet_rack> [--seed=N] [--seconds=S] "
               "[--traced] [--smoke] [--out-dir=DIR] [--chrome-trace=FILE] "
               "[--commit=SHA]\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* prefix) -> const char* {
      const std::size_t n = std::char_traits<char>::length(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("bad --seed: " + a);
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(o.seconds > 0)) {
        usage("bad --seconds: " + a);
      }
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (const char* v = value("--out-dir=")) {
      o.out_dir = v;
    } else if (const char* v = value("--chrome-trace=")) {
      o.chrome_trace = v;
    } else if (const char* v = value("--commit=")) {
      o.commit = v;
    } else {
      usage("unknown option: " + a);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void check_tail(const LatencyTail& t, const std::string& where,
                Ledger& ledger) {
  ledger.check(t.p50_ns <= t.p95_ns && t.p95_ns <= t.p99_ns &&
                   t.p99_ns <= t.max_ns,
               where + ": p50 <= p95 <= p99 <= max");
}

void check_node(const sim::SimulationResult& r, const std::string& where,
                Ledger& ledger) {
  std::uint64_t thread_insts = 0, core_insts = 0;
  double core_j = 0;
  for (const sim::ThreadMetrics& t : r.threads) thread_insts += t.instructions;
  for (const sim::CoreMetrics& c : r.cores) {
    core_insts += c.instructions;
    core_j += c.energy_j;
  }
  ledger.check(thread_insts == r.instructions && core_insts == r.instructions,
               where + ": thread, core and total instructions agree");
  ledger.check(std::abs(core_j - r.energy_j) <= 1e-9 * r.energy_j,
               where + ": core energies sum to the total");
  ledger.check(r.instructions > 0 && std::isfinite(r.ips_per_watt) &&
                   r.ips_per_watt > 0,
               where + ": efficiency is finite and positive");
  check_tail(r.wake_to_run, where + " wake tail", ledger);
}

/// Output checks of one pass; `reference` is the first pass's digest.
void check_pass(const Pass& p, std::uint64_t reference,
                const std::string& label, Ledger& ledger) {
  for (std::size_t i = 0; i < p.arms.size(); ++i) {
    const Arm& a = p.arms[i];
    const std::string where = label + " arm " + std::to_string(i);
    ledger.check(!a.nodes.empty(), where + ": simulation returned results");
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
      check_node(a.nodes[n], where + " node " + std::to_string(n), ledger);
    }
    if (!a.fleet) continue;
    const fleet::FleetResult& f = *a.fleet;
    ledger.check(f.jobs_arrived >= f.jobs_dispatched &&
                     f.jobs_dispatched >= f.jobs_completed,
                 where + ": jobs arrived >= dispatched >= completed");
    check_tail(f.queue, where + " queue tail", ledger);
    check_tail(f.wake, where + " wake tail", ledger);
    check_tail(f.sojourn, where + " sojourn tail", ledger);
  }
  ledger.check(p.digest() == reference,
               label + ": digest equals the first pass's");
}

/// Drops a checked pass's bulky per-node data (thread and core tables,
/// observability snapshots, raw wake samples, job records) and keeps the
/// scalars later metrics read, so memory does not grow with the pass count.
void shed(Pass& p) {
  for (Arm& a : p.arms) {
    a.wake_ns = {};
    if (a.fleet) a.fleet->jobs = {};
    for (sim::SimulationResult& n : a.nodes) {
      n.threads = {};
      n.cores = {};
      n.obs.reset();
    }
  }
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double mips_per_watt(const Pass& p) {
  std::vector<double> eff;
  for (const Arm& a : p.arms) {
    if (a.smart) eff.push_back(a.inst_per_joule() / 1e6);
  }
  return geomean(eff);
}

/// SmartBalance efficiency over vanilla, geomean over the (vanilla,
/// smartbalance) arm pairs, which run identical inputs.
double gain_ratio(const Pass& p) {
  std::vector<double> ratio;
  for (std::size_t i = 0; i + 1 < p.arms.size(); i += 2) {
    ratio.push_back(p.arms[i + 1].inst_per_joule() / p.arms[i].inst_per_joule());
  }
  return geomean(ratio);
}

/// The paper's Fig. 7 number: mean sense + predict + optimize host time per
/// pass, read from the policy's own phase timers, as a share of the epoch.
double epoch_overhead_pct(const Pass& p) {
  const double epoch_us = to_millis(core::SmartBalanceConfig().epoch) * 1e3;
  double sum = 0, nodes = 0;
  for (const Arm& a : p.arms) {
    if (!a.smart) continue;
    for (const sim::SimulationResult& r : a.nodes) {
      sum += r.avg_sense_us + r.avg_predict_us + r.avg_optimize_us;
      nodes += 1;
    }
  }
  return 100.0 * sum / nodes / epoch_us;
}

/// Named metrics in first-set order; setting a name again replaces it.
class Report {
 public:
  void set(const Metric& m) {
    for (Metric& x : metrics_) {
      if (x.name == m.name) {
        x = m;
        return;
      }
    }
    metrics_.push_back(m);
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& x : metrics_) {
      if (x.name == name) return &x;
    }
    return nullptr;
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Median over passes of f(pass).
template <class F>
double median_of(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

void print_metrics(const char* kind, const Report& r) {
  for (const Metric& m : r.all()) {
    std::printf("%-8s %-34s %16.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::printf("# sb_e2e workload=%s seed=%llu seconds=%g mode=%s size=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.traced ? "traced" : "untraced",
              opt.smoke ? "smoke" : "full");
  std::printf("# cpu=%s nproc=%u\n", cpu_model().c_str(),
              std::thread::hardware_concurrency());
  std::printf("# compiler=%s flags=%s\n", SB_E2E_COMPILER, SB_E2E_FLAGS);
  std::printf("# commit=%s\n", opt.commit.c_str());

  Ledger ledger;
  Report e2e, info, layers;
  try {
    auto workload = make_workload(opt.workload, opt.seed, opt.smoke, opt.out_dir);
    Spans spans;
    std::vector<Pass> untraced, traced;
    std::vector<Metrics> traced_layers;
    const auto run_untraced = [&] {
      untraced.push_back(workload->run_pass(PassMode{}, nullptr));
      check_pass(untraced.back(), untraced.front().digest(),
                 "pass " + std::to_string(untraced.size()), ledger);
      // Memory of one set-up and run: later passes reuse freed heap in a
      // timing-dependent way, so the high-water mark is read here.
      if (untraced.size() == 1) e2e.set({"peak_rss_mb", peak_rss_mb(), "MB"});
      if (untraced.size() > 1) shed(untraced.back());
    };
    const auto run_traced = [&] {
      spans.next_pass();
      PassMode mode;
      mode.metrics = true;
      traced.push_back(workload->run_pass(mode, &spans));
      check_pass(traced.back(), untraced.front().digest(),
                 "traced pass " + std::to_string(traced.size()), ledger);
      traced_layers.push_back(layer_metrics(traced.back()));
      shed(traced.back());
    };
    // At least three passes (or pairs) for a median; --smoke ignores
    // --seconds. Traced runs alternate which pass of a pair goes first, so
    // the cold first pass does not bias one side.
    const std::size_t min_passes = opt.smoke ? (opt.traced ? 1 : 2) : 3;
    const auto start = Clock::now();
    while (untraced.size() < min_passes ||
           (!opt.smoke && seconds_between(start, Clock::now()) < opt.seconds)) {
      const bool traced_first = opt.traced && untraced.size() % 2 == 1;
      if (traced_first) run_traced();
      run_untraced();
      if (opt.traced && !traced_first) run_traced();
    }
    for (const auto* passes : {&untraced, &traced}) {
      if (passes->empty()) continue;
      std::printf("# %s passes=%zu measured_s:",
                  passes == &traced ? "traced" : "untraced", passes->size());
      for (const Pass& p : *passes) std::printf(" %.4f", p.measured_s);
      std::printf("\n");
    }

    const Pass& first = untraced.front();
    e2e.set({"sim_speed", median_of(untraced, [](const Pass& p) {
               return p.sim_ms() / (p.measured_s * p.host_scale() * 1e3);
             }), "sim_ms/host_ms"});
    e2e.set({"setup_s", median_of(untraced, [](const Pass& p) {
               return p.setup_s() * p.host_scale();
             }), "s"});
    e2e.set({"mips_per_watt", mips_per_watt(first), "MIPS/W"});
    e2e.set({"gain_ratio", gain_ratio(first), "ratio"});
    e2e.set({"epoch_overhead_pct", median_of(untraced, [](const Pass& p) {
               return epoch_overhead_pct(p) * p.host_scale();
             }), "%"});
    info.set({"sim_speed_unscaled", median_of(untraced, [](const Pass& p) {
                   return p.sim_ms() / (p.measured_s * 1e3);
                 }), "sim_ms/host_ms"});
    info.set({"host_scale", median_of(untraced, [](const Pass& p) {
                   return p.host_scale();
                 }), "ratio"});
    info.set({"gain_pct", 100.0 * (gain_ratio(first) - 1.0), "%"});
    for (const Metric& m : workload->info(first)) info.set(m);

    if (opt.traced) {
      const Metrics& names = traced_layers.front();
      for (std::size_t i = 0; i < names.size(); ++i) {
        std::vector<double> v;
        for (const Metrics& m : traced_layers) v.push_back(m[i].value);
        layers.set({names[i].name, median(v), names[i].unit});
      }
      const auto measured = [](const Pass& p) {
        return p.measured_s * p.host_scale();
      };
      layers.set({"sim.trace_overhead_pct",
                  100.0 * (median_of(traced, measured) /
                               median_of(untraced, measured) -
                           1.0),
                  "%"});
      for (const Metric& m : workload->probe(untraced, traced, ledger, &spans)) {
        layers.set(m);
      }
      if (!opt.chrome_trace.empty()) spans.write(opt.chrome_trace);
    }
  } catch (const std::exception& ex) {
    ledger.check(false, std::string("benchmark aborted: ") + ex.what());
  }

  for (const Report* r : {&e2e, &info, &layers}) {
    for (const Metric& m : r->all()) {
      ledger.check(std::isfinite(m.value), m.name + " is finite");
    }
  }
  for (const char* rate : {"sim_speed", "setup_s", "peak_rss_mb",
                           "mips_per_watt", "epoch_overhead_pct"}) {
    const Metric* m = e2e.find(rate);
    ledger.check(m != nullptr && m->value > 0, std::string(rate) + " > 0");
  }
  const Report& gated = opt.traced ? layers : e2e;
  const auto& names = opt.traced ? kPerLayer : kEndToEnd;
  for (const std::string& name : names) {
    ledger.check(gated.find(name) != nullptr, name + " was measured");
  }

  print_metrics("e2e", e2e);
  print_metrics("info", info);
  print_metrics("layer", layers);
  std::printf("%-8s %-34s %16.6g %s\n", "e2e", "fail_ratio",
              static_cast<double>(ledger.failed()) /
                  static_cast<double>(ledger.attempted()),
              "ratio");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  const char* sep = "";
  for (const std::string& name : names) {
    const Metric* m = gated.find(name);
    if (m == nullptr) continue;
    std::printf("%s\"%s\": {\"value\": ", sep, name.c_str());
    if (std::isfinite(m->value)) {
      std::printf("%.17g", m->value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m->unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return ledger.failed() == 0 ? 0 : 1;
}
