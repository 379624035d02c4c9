// The four pinned workloads of sb_e2e and the layer probes each one needs.
//
// Every simulation is driven through the library's public API exactly as
// sbsim drives it: build a Simulation (or FleetSimulation), install the
// policy, populate, run(). Nothing here reaches inside a layer; host time is
// attributed by timing those calls and by reading the counters the library
// already exposes (the policy's phase timers, the metrics registry).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "arch/platform.h"
#include "common/percentile.h"
#include "core/smart_balance.h"
#include "e2e.h"
#include "obs/audit_writer.h"
#include "obs/timeseries.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "sim/experiment.h"
#include "sim/simulation.h"
#include "workload/benchmarks.h"
#include "workload/mixes.h"

namespace sb::e2e {

// --- pass bookkeeping shared by every workload ----------------------------

Spans::Spans() : tracer_(std::size_t{1} << 16), origin_(Clock::now()) {}

void Spans::add(std::string_view name, Clock::time_point t0,
                Clock::time_point t1) {
  const auto ns = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  tracer_.span(name, ns(t0 - origin_), ns(t1 - t0), pass_);
}

void Spans::write(const std::string& path) const {
  obs::RunObs run;
  run.label = "sb_e2e";
  run.trace_enabled = true;
  run.trace = tracer_.snapshot();
  obs::write_chrome_trace_file(path, {&run});
}

bool Ledger::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

double Arm::inst_per_joule() const {
  return fleet ? fleet->je_inst_per_joule : nodes.front().ips_per_watt;
}

double yardstick_s() {
  const auto t0 = Clock::now();
  std::uint64_t z = 0, acc = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    z += 0x9e3779b97f4a7c15ULL;
    std::uint64_t x = z;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    acc ^= x ^ (x >> 31);
  }
  asm volatile("" : : "r"(acc));  // keep the loop: its result is "used"
  return seconds_between(t0, Clock::now());
}

double Pass::host_scale() const {
  if (yard_s.empty()) return 1.0;
  double sum = 0;
  for (const double y : yard_s) sum += y;
  return kYardstickRefS * static_cast<double>(yard_s.size()) / sum;
}

double Pass::sim_ms() const {
  double ms = 0;
  for (const Arm& a : arms) ms += a.sim_ms;
  return ms;
}

namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace

std::uint64_t Pass::digest() const {
  Fnv h;
  for (const Arm& a : arms) {
    h.add(static_cast<std::uint64_t>(a.smart));
    for (const sim::SimulationResult& n : a.nodes) {
      h.add(n.instructions);
      h.add(n.energy_j);
      h.add(n.migrations);
      h.add(n.context_switches);
      h.add(n.balance_passes);
      h.add(n.wake_to_run.count);
      h.add(n.wake_to_run.p99_ns);
      h.add(n.wake_to_run.max_ns);
      for (const sim::CoreMetrics& c : n.cores) {
        h.add(c.instructions);
        h.add(c.energy_j);
      }
    }
    if (a.fleet) {
      const fleet::FleetResult& f = *a.fleet;
      h.add(f.jobs_arrived);
      h.add(f.jobs_dispatched);
      h.add(f.jobs_completed);
      h.add(f.jobs_deferred);
      h.add(f.p99_dispatch_to_run_ns);
    }
  }
  return h.value();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Metrics layer_metrics(const Pass& p) {
  obs::MetricsRegistry m;  // SmartBalance nodes' registries, merged
  double smart_ns = 0, smart_node_ms = 0, vanilla_ns = 0, vanilla_node_ms = 0;
  double switches = 0, wakes = 0, smart_migrations = 0;
  for (const Arm& a : p.arms) {
    (a.smart ? smart_ns : vanilla_ns) += a.host_s * 1e9;
    (a.smart ? smart_node_ms : vanilla_node_ms) += a.node_ms();
    for (const sim::SimulationResult& n : a.nodes) {
      switches += static_cast<double>(n.context_switches);
      wakes += static_cast<double>(n.wake_to_run.count);
      if (!a.smart) continue;
      smart_migrations += static_cast<double>(n.migrations);
      if (n.obs) m.merge(n.obs->metrics);
    }
  }
  const obs::Histogram& sense = m.histogram("epoch.sense_ns");
  const obs::Histogram& predict = m.histogram("epoch.predict_ns");
  const obs::Histogram& optimize = m.histogram("epoch.optimize_ns");
  const auto count = [&m](const char* name) {
    return static_cast<double>(m.counter(name).value);
  };
  const double phase_ns = static_cast<double>(sense.sum() + predict.sum() +
                                              optimize.sum());
  double yard_s = 0;
  for (const double y : p.yard_s) yard_s += y;
  const double node_s = (smart_node_ms + vanilla_node_ms) / 1e3;
  const double iterations = count("sa.iterations");
  const double calls = count("sa.calls");
  return {
      {"sim.train_ms", p.train_s * 1e3, "ms"},
      {"sim.populate_ms", p.populate_s * 1e3, "ms"},
      {"sim.unattributed_pct",
       100.0 * (p.wall_s - p.setup_s() - p.measured_s - yard_s) / p.wall_s,
       "%"},
      {"os.self_ns_per_sim_ms", (smart_ns - phase_ns) / smart_node_ms,
       "ns/sim_ms"},
      {"os.vanilla_ns_per_sim_ms", vanilla_ns / vanilla_node_ms, "ns/sim_ms"},
      {"os.ns_per_switch", (smart_ns + vanilla_ns - phase_ns) / switches, "ns"},
      {"os.switches_per_sim_s", switches / node_s, "1/sim_s"},
      {"os.wakes_per_sim_s", wakes / node_s, "1/sim_s"},
      {"os.migrations_per_sim_s", smart_migrations / (smart_node_ms / 1e3),
       "1/sim_s"},
      {"core.sense_us_mean", sense.mean() / 1e3, "us"},
      {"core.predict_us_mean", predict.mean() / 1e3, "us"},
      {"core.optimize_us_mean", optimize.mean() / 1e3, "us"},
      {"core.predict_us_p99", static_cast<double>(predict.quantile(0.99)) / 1e3,
       "us"},
      {"core.optimize_us_p99",
       static_cast<double>(optimize.quantile(0.99)) / 1e3, "us"},
      {"core.sa_ns_per_iter",
       static_cast<double>(m.histogram("sa.host_ns").sum()) / iterations, "ns"},
      {"core.sa_iters_per_pass", iterations / calls, "1/call"},
      {"core.sa_improved_ratio", count("sa.improved") / calls, "1/call"},
      {"core.sa_worse_accept_ratio", count("sa.accepted_worse") / iterations,
       "ratio"},
      {"core.migrations_per_pass",
       count("balance.migrations") / count("epoch.passes"), "count"},
  };
}

namespace {

/// Times PerfModel::evaluate and PowerModel::busy_power_core_w over every
/// phase profile of `benchmarks` on every core of `platforms` — the two
/// model calls the kernel makes per scheduling segment, measured outside
/// the kernel so the simulation itself is never re-stepped.
Metrics model_loops(const std::vector<arch::Platform>& platforms,
                    const std::vector<std::string>& benchmarks,
                    double budget_s, Ledger& ledger, Spans* spans) {
  std::vector<workload::WorkloadProfile> profiles;
  for (const std::string& name : benchmarks) {
    for (const workload::Phase& ph : workload::BenchmarkLibrary::get(name).phases) {
      profiles.push_back(ph.profile);
    }
  }
  double eval_s = 0, power_s = 0, sink = 0;
  std::uint64_t evals = 0, powers = 0;
  for (const arch::Platform& platform : platforms) {
    const perf::PerfModel perf(platform);
    const power::PowerModel power(platform, perf);
    struct Point {
      CoreId core;
      double ipc;
      double activity;
    };
    std::vector<Point> points;
    eval_s += timed(spans, "perf.evaluate_loop", [&] {
      const auto t0 = Clock::now();
      do {
        points.clear();
        for (const workload::WorkloadProfile& prof : profiles) {
          for (CoreId c = 0; c < platform.num_cores(); ++c) {
            const double ipc = perf.evaluate(prof, c).ipc;
            points.push_back({c, ipc, prof.activity});
            sink += ipc;
            ++evals;
          }
        }
      } while (seconds_between(t0, Clock::now()) < budget_s);
    });
    power_s += timed(spans, "power.busy_power_loop", [&] {
      const auto t0 = Clock::now();
      do {
        for (const Point& pt : points) {
          sink += power.busy_power_core_w(pt.core, pt.ipc, pt.activity);
          ++powers;
        }
      } while (seconds_between(t0, Clock::now()) < budget_s);
    });
  }
  ledger.check(std::isfinite(sink) && sink > 0,
               "perf/power model loops return finite positive values");
  return {{"perf.evaluate_ns", eval_s * 1e9 / static_cast<double>(evals), "ns"},
          {"power.busy_power_ns", power_s * 1e9 / static_cast<double>(powers),
           "ns"}};
}

core::PredictorModel train_for(const arch::Platform& platform) {
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  return sim::train_default_model(perf, power);
}

std::uint64_t file_bytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

// --- single-node workloads ------------------------------------------------

/// One simulated node, run once under vanilla and once under SmartBalance.
struct Scenario {
  std::string shape;  // platform name; one predictor is trained per shape
  arch::Platform platform;
  sim::SimulationConfig cfg;
  /// Every benchmark populate() forks (profiles for the model loops).
  std::vector<std::string> benchmarks;
  std::function<void(sim::Simulation&)> populate;
};

class NodeSweep final : public Workload {
 public:
  NodeSweep(std::string name, std::vector<Scenario> scenarios,
            core::SmartBalanceConfig smart, std::string out_dir, bool smoke)
      : name_(std::move(name)),
        scenarios_(std::move(scenarios)),
        smart_(std::move(smart)),
        out_dir_(std::move(out_dir)),
        smoke_(smoke) {}

  Pass run_pass(const PassMode& mode, Spans* spans) override;
  Metrics info(const Pass& pass) const override;
  Metrics probe(const std::vector<Pass>& untraced,
                const std::vector<Pass>& traced, Ledger& ledger,
                Spans* spans) override;

 private:
  bool telemetry() const { return scenarios_.front().cfg.obs.timeseries.enabled; }
  std::unique_ptr<sim::Simulation> build(const Scenario& sc,
                                         sim::SimulationConfig cfg, bool smart,
                                         const core::PredictorModel& model) const;

  std::string name_;
  std::vector<Scenario> scenarios_;
  core::SmartBalanceConfig smart_;
  std::string out_dir_;
  bool smoke_;
};

std::unique_ptr<sim::Simulation> NodeSweep::build(
    const Scenario& sc, sim::SimulationConfig cfg, bool smart,
    const core::PredictorModel& model) const {
  auto s = std::make_unique<sim::Simulation>(sc.platform, cfg);
  s->set_balancer(smart ? sim::smartbalance_factory_with_model(model, smart_)(*s)
                        : sim::vanilla_factory()(*s));
  sc.populate(*s);
  return s;
}

Pass NodeSweep::run_pass(const PassMode& mode, Spans* spans) {
  const auto t_pass = Clock::now();
  Pass p;
  std::map<std::string, core::PredictorModel> models;
  p.train_s = timed(spans, "sim.train", [&] {
    for (const Scenario& sc : scenarios_) {
      if (models.count(sc.shape) == 0) {
        models.emplace(sc.shape, train_for(sc.platform));
      }
    }
  });
  std::vector<const obs::RunObs*> exports;
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const Scenario& sc = scenarios_[i];
    for (const bool smart : {false, true}) {
      sim::SimulationConfig cfg = sc.cfg;
      cfg.obs.metrics = cfg.obs.metrics || mode.metrics;
      std::unique_ptr<sim::Simulation> s;
      p.populate_s += timed(spans, "sim.populate", [&] {
        s = build(sc, cfg, smart, models.at(sc.shape));
      });
      p.yard_s.push_back(yardstick_s());
      Arm a;
      a.smart = smart;
      a.sim_ms = to_millis(cfg.duration);
      sim::SimulationResult r;
      a.host_s = timed(spans, smart ? "run.smartbalance" : "run.vanilla",
                       [&] { r = s->run(); });
      for (const TimeNs w : s->kernel().wake_latencies()) {
        a.wake_ns.push_back(static_cast<std::uint64_t>(w));
      }
      if (smart && r.obs && (r.obs->timeseries_enabled || r.obs->audit_enabled)) {
        r.obs->run = static_cast<int>(i) + 1;
        exports.push_back(r.obs.get());
      }
      p.measured_s += a.host_s;
      a.nodes.push_back(std::move(r));
      p.arms.push_back(std::move(a));
    }
  }
  p.yard_s.push_back(yardstick_s());
  if (!exports.empty()) {
    // The observed workload writes what an sbsim user with --timeseries and
    // --audit gets: one merged export of each kind per pass.
    const std::string tsdb = out_dir_ + "/" + name_ + ".tsdb.csv";
    const std::string audit = out_dir_ + "/" + name_ + ".audit.csv";
    p.export_s = timed(spans, "obs.export", [&] {
      obs::write_timeseries_file(tsdb, exports);
      obs::write_audit_file(audit, exports);
    });
    p.export_bytes = file_bytes(tsdb) + file_bytes(audit);
    p.measured_s += p.export_s;
  }
  p.wall_s = seconds_between(t_pass, Clock::now());
  return p;
}

Metrics NodeSweep::info(const Pass& pass) const {
  Metrics q;
  std::vector<std::uint64_t> wakes;
  double gips_err = 0, power_err = 0, records = 0;
  for (const Arm& a : pass.arms) {
    if (!a.smart) continue;
    wakes.insert(wakes.end(), a.wake_ns.begin(), a.wake_ns.end());
    const auto& o = a.nodes.front().obs;
    if (!o || !o->audit_enabled) continue;
    for (const obs::ThreadAuditRecord& t : o->audit.threads) {
      gips_err += std::abs(t.gips_err);
      power_err += std::abs(t.power_err);
      records += 1;
    }
  }
  if (!wakes.empty()) {
    q.push_back({"wake_samples", static_cast<double>(wakes.size()), "count"});
    q.push_back({"p99_wake_us",
                 static_cast<double>(nearest_rank(std::move(wakes), 0.99)) / 1e3,
                 "us"});
  }
  if (records > 0) {
    q.push_back({"pred_gips_err_pct", 100.0 * gips_err / records, "%"});
    q.push_back({"pred_power_err_pct", 100.0 * power_err / records, "%"});
  }
  return q;
}

Metrics NodeSweep::probe(const std::vector<Pass>& untraced,
                         const std::vector<Pass>& /*traced*/, Ledger& ledger,
                         Spans* spans) {
  std::vector<arch::Platform> platforms;
  std::vector<std::string> shapes, benchmarks;
  for (const Scenario& sc : scenarios_) {
    if (std::find(shapes.begin(), shapes.end(), sc.shape) == shapes.end()) {
      shapes.push_back(sc.shape);
      platforms.push_back(sc.platform);
    }
    for (const std::string& b : sc.benchmarks) {
      if (std::find(benchmarks.begin(), benchmarks.end(), b) == benchmarks.end()) {
        benchmarks.push_back(b);
      }
    }
  }
  Metrics m = model_loops(platforms, benchmarks, smoke_ ? 0.002 : 0.1, ledger,
                          spans);

  // Stepping drift: the first scenario's SmartBalance arm, stepped in 5 ms
  // service chunks instead of one run(); the kernel's answer should not
  // depend on how a caller slices simulated time.
  const Scenario& sc = scenarios_.front();
  auto s = build(sc, sc.cfg, true, train_for(sc.platform));
  sim::SimulationResult chunked;
  timed(spans, "probe.chunked_run", [&] {
    s->begin_service();
    while (s->kernel().now() < sc.cfg.duration) {
      s->advance_service(
          std::min<TimeNs>(milliseconds(5), sc.cfg.duration - s->kernel().now()));
    }
    chunked = s->finish_service();
  });
  const auto ref = static_cast<double>(untraced.front().arms[1].nodes.front().instructions);
  m.push_back({"os.chunk_drift_pct",
               100.0 * std::abs(static_cast<double>(chunked.instructions) - ref) / ref,
               "%"});

  if (!telemetry()) return m;
  // Telemetry cost: the SmartBalance arms again with every obs feature off
  // (a different simulation: without the sampler the kernel runs in one
  // run_until, see os.chunk_drift_pct), against the passes' own run time.
  double off_s = 0;
  for (const Scenario& scen : scenarios_) {
    sim::SimulationConfig cfg = scen.cfg;
    cfg.obs = obs::ObsConfig();
    auto plain = build(scen, cfg, true, train_for(scen.platform));
    off_s += timed(spans, "probe.run_telemetry_off", [&] { (void)plain->run(); });
  }
  std::vector<double> on_s, export_s;
  for (const Pass& p : untraced) {
    double s_on = 0;
    for (const Arm& a : p.arms) s_on += a.smart ? a.host_s : 0.0;
    on_s.push_back(s_on);
    export_s.push_back(p.export_s);
  }
  double dropped = 0, joined = 0, rls = 0, passes = 0;
  for (const Arm& a : untraced.front().arms) {
    if (!a.smart) continue;
    const sim::SimulationResult& r = a.nodes.front();
    dropped += static_cast<double>(r.obs->timeseries.dropped);
    joined += static_cast<double>(r.obs->audit.joined);
    rls += static_cast<double>(r.adapt_rls_updates);
    passes += static_cast<double>(r.balance_passes);
  }
  m.push_back({"obs.overhead_pct", 100.0 * (median(on_s) / off_s - 1.0), "%"});
  m.push_back({"obs.export_ms", median(export_s) * 1e3, "ms"});
  m.push_back({"obs.export_bytes",
               static_cast<double>(untraced.front().export_bytes), "bytes"});
  m.push_back({"obs.tsdb_dropped", dropped, "count"});
  m.push_back({"obs.audit_joined", joined, "count"});
  m.push_back({"core.adapt_rls_updates_per_pass", rls / passes, "count"});
  return m;
}

// --- fleet workload -------------------------------------------------------

/// fig_fleet's mixed_rack: three quad-HMP and three big.LITTLE nodes behind
/// the energy-aware dispatcher, once with SmartBalance nodes and once with
/// vanilla nodes. Passes step the nodes on one thread; the traced probe runs
/// the same pass on min(4, nproc) stepping threads (see README.md for why
/// the gated numbers are sequential).
class FleetRack final : public Workload {
 public:
  FleetRack(std::uint64_t seed, TimeNs window, bool smoke)
      : seed_(seed), window_(window), smoke_(smoke) {
    for (int i = 0; i < 3; ++i) nodes_.push_back(arch::Platform::quad_heterogeneous());
    for (int i = 0; i < 3; ++i) nodes_.push_back(arch::Platform::octa_big_little());
  }

  Pass run_pass(const PassMode& mode, Spans* spans) override;
  Metrics info(const Pass& pass) const override;
  Metrics probe(const std::vector<Pass>& untraced,
                const std::vector<Pass>& traced, Ledger& ledger,
                Spans* spans) override;

 private:
  std::uint64_t seed_;
  TimeNs window_;
  bool smoke_;
  std::vector<arch::Platform> nodes_;
};

Pass FleetRack::run_pass(const PassMode& mode, Spans* spans) {
  const auto t_pass = Clock::now();
  Pass p;
  for (const bool smart : {false, true}) {
    fleet::FleetConfig cfg;
    cfg.nodes = static_cast<int>(nodes_.size());
    cfg.policy = fleet::DispatchPolicy::kEnergyAware;
    cfg.rate_hz = 380.0;
    cfg.duration = window_;
    cfg.seed = seed_;
    cfg.load_cap = 1.5;
    cfg.consolidation_bias = 0.0;
    cfg.node_policy = smart ? "smartbalance" : "vanilla";
    cfg.node_obs = mode.metrics;
    cfg.step_jobs = mode.parallel
                        ? static_cast<int>(std::clamp(
                              std::thread::hardware_concurrency(), 1U, 4U))
                        : 1;
    std::unique_ptr<fleet::FleetSimulation> f;
    // The constructor trains one predictor per node shape and builds and
    // starts every node: the fleet's whole set-up.
    p.populate_s += timed(spans, "fleet.setup", [&] {
      f = std::make_unique<fleet::FleetSimulation>(cfg, nodes_);
    });
    Arm a;
    a.smart = smart;
    a.sim_ms = to_millis(window_);
    fleet::FleetResult r;
    a.host_s = timed(spans, smart ? "fleet.run.smartbalance" : "fleet.run.vanilla",
                     [&] { r = f->run(); });
    a.nodes = std::move(r.node_results);
    a.fleet = std::move(r);
    p.measured_s += a.host_s;
    p.arms.push_back(std::move(a));
  }
  p.wall_s = seconds_between(t_pass, Clock::now());
  return p;
}

Metrics FleetRack::info(const Pass& pass) const {
  const fleet::FleetResult& f = *pass.arms[1].fleet;
  return {
      {"fleet_minst_per_j", f.je_inst_per_joule / 1e6, "Minst/J"},
      {"p99_dispatch_to_run_ms",
       static_cast<double>(f.p99_dispatch_to_run_ns) / 1e6, "ms"},
      {"jobs_completed_pct",
       100.0 * static_cast<double>(f.jobs_completed) /
           static_cast<double>(f.jobs_arrived),
       "%"},
  };
}

Metrics FleetRack::probe(const std::vector<Pass>& untraced,
                         const std::vector<Pass>& traced, Ledger& ledger,
                         Spans* spans) {
  const std::vector<arch::Platform> shapes = {nodes_.front(), nodes_.back()};
  std::vector<std::string> benchmarks;
  for (const fleet::JobClass& jc : fleet::default_catalog()) {
    benchmarks.push_back(jc.benchmark);
  }
  Metrics m = model_loops(shapes, benchmarks, smoke_ ? 0.002 : 0.1, ledger, spans);
  // The constructor trains internally; time the same training from outside.
  const double train_s = timed(spans, "sim.train", [&] {
    for (const arch::Platform& p : shapes) (void)train_for(p);
  });
  m.push_back({"sim.train_ms", train_s * 1e3, "ms"});

  PassMode parallel;
  parallel.metrics = true;
  parallel.parallel = true;
  const Pass par = run_pass(parallel, spans);
  ledger.check(par.digest() == untraced.front().digest(),
               "parallel fleet stepping reproduces the sequential digest");
  const double quanta = static_cast<double>(window_) /
                        static_cast<double>(fleet::FleetConfig().quantum);
  std::vector<double> sequential_s, per_quantum_us;
  for (const Pass& p : traced) {
    sequential_s.push_back(p.measured_s);
    per_quantum_us.push_back(p.arms[1].host_s * 1e6 / quanta);
  }
  const fleet::FleetResult& f = *untraced.front().arms[1].fleet;
  m.push_back({"fleet.host_us_per_quantum", median(per_quantum_us), "us"});
  m.push_back({"fleet.step_speedup", median(sequential_s) / par.measured_s,
               "ratio"});
  m.push_back({"fleet.deferred_per_job",
               static_cast<double>(f.jobs_deferred) /
                   static_cast<double>(f.jobs_arrived),
               "ratio"});
  return m;
}

// --- the pinned workloads -------------------------------------------------

TimeNs seconds_of(double s) { return static_cast<TimeNs>(s * 1e9); }

std::unique_ptr<Workload> parsec_sweep(std::uint64_t seed, bool smoke,
                                       const std::string& out_dir) {
  std::vector<Scenario> scenarios;
  const std::pair<const char*, arch::Platform> platforms[] = {
      {"quad", arch::Platform::quad_heterogeneous()},
      {"octa", arch::Platform::octa_big_little()}};
  for (const auto& [shape, platform] : platforms) {
    for (int mix = 1; mix <= workload::num_mixes(); ++mix) {
      Scenario sc;
      sc.shape = shape;
      sc.platform = platform;
      sc.cfg.duration = seconds_of(smoke ? 4 : 180);
      // Distinct seeds per bar: with one shared seed every bar draws the
      // same thread jitter, so the bars move together across seeds and the
      // geomeans average nothing out.
      sc.cfg.seed = sim::replica_seed(seed, static_cast<int>(scenarios.size()));
      sc.benchmarks = workload::mix_members(mix);
      sc.populate = [mix](sim::Simulation& s) { s.add_mix(mix, 2); };
      scenarios.push_back(std::move(sc));
    }
  }
  return std::make_unique<NodeSweep>("parsec_sweep", std::move(scenarios),
                                     core::SmartBalanceConfig(), out_dir, smoke);
}

std::unique_ptr<Workload> manycore_fig7(std::uint64_t seed, bool smoke,
                                        const std::string& out_dir) {
  // Three 8 s replicas: the annealer's outcome at 128 cores varies from
  // seed to seed (single 8 s runs span about +-5% in MIPS/W), and the
  // replicas' geomean damps that at the host cost of one 24 s run.
  std::vector<Scenario> scenarios;
  for (int r = 0; r < 3; ++r) {
    Scenario sc;
    sc.shape = "scaled:32";
    sc.platform = arch::Platform::scaled_heterogeneous(32);
    sc.cfg.duration = seconds_of(smoke ? 0.3 : 8);
    sc.cfg.seed = sim::replica_seed(seed, r);
    sc.benchmarks = {"swaptions", "canneal", "bodytrack", "x264_H_crew"};
    sc.populate = [names = sc.benchmarks](sim::Simulation& s) {
      for (int i = 0; i < 256; ++i) s.add_benchmark(names[i % names.size()], 1);
    };
    scenarios.push_back(std::move(sc));
  }
  return std::make_unique<NodeSweep>("manycore_fig7", std::move(scenarios),
                                     core::SmartBalanceConfig(), out_dir, smoke);
}

std::unique_ptr<Workload> interactive_observed(std::uint64_t seed, bool smoke,
                                               const std::string& out_dir) {
  std::vector<Scenario> scenarios;
  for (int r = 0; r < 12; ++r) {
    Scenario sc;
    sc.shape = "quad";
    sc.platform = arch::Platform::quad_heterogeneous();
    sc.cfg.duration = seconds_of(smoke ? 2 : 90);
    sc.cfg.seed = sim::replica_seed(seed, r);
    sc.cfg.obs.metrics = true;
    sc.cfg.obs.audit = true;
    sc.cfg.obs.timeseries = obs::TimeseriesConfig::parse("10:16384");
    sc.cfg.obs.slo = obs::SloConfig::parse("p99_wake_us<20000:burn=0.3:window=200");
    sc.benchmarks = {"IMB_MTHI", "canneal"};
    sc.populate = [](sim::Simulation& s) {
      s.add_benchmark("IMB_MTHI", 8);
      s.add_benchmark("canneal", 2);
    };
    scenarios.push_back(std::move(sc));
  }
  core::SmartBalanceConfig smart;
  smart.adaptation = core::AdaptationConfig::parse("bias,rls");
  return std::make_unique<NodeSweep>("interactive_observed", std::move(scenarios),
                                     std::move(smart), out_dir, smoke);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "parsec_sweep", "manycore_fig7", "interactive_observed", "fleet_rack"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& out_dir) {
  if (name == "parsec_sweep") return parsec_sweep(seed, smoke, out_dir);
  if (name == "manycore_fig7") return manycore_fig7(seed, smoke, out_dir);
  if (name == "interactive_observed") {
    return interactive_observed(seed, smoke, out_dir);
  }
  if (name == "fleet_rack") {
    return std::make_unique<FleetRack>(seed, seconds_of(smoke ? 2 : 120), smoke);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace sb::e2e
