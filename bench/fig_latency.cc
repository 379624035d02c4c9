// fig_latency — interactive wake-to-run latency: smartbalance vs vanilla.
//
// Tentpole claim: SmartBalance stays energy-efficient WITHOUT hurting how
// fast woken threads get a core. The paper's IMB interactive benchmarks
// (Fig. 4a) gesture at this responsiveness axis but never measure it; here
// the exact per-wake wake→first-dispatch samples collected by the kernel
// (os/kernel.h wake_latencies) are reduced to nearest-rank p50/p95/p99
// tails and gated: on both interactive scenarios SmartBalance's p95 and
// p99 wake-to-run must be equal or better than vanilla's, with absolute
// ceilings of 0 on the excess (the simulation is deterministic, so any
// nonzero excess is a real responsiveness regression, not noise).
//
// Scenarios (both on the paper's quad-core 4-type HMP, fixed 240 ms):
//   replayed — a recorded 200 ms scheduler trace (six interactive UI tasks
//              with staggered duty cycles over two background hogs),
//              generated in-process and compiled through
//              workload/sched_replay.h. The identical trace is checked in
//              as examples/interactive_replay.csv for sbsim --replay runs.
//   bursty   — IMB_MTHI x8 interactive threads over canneal x2 hogs (2.5x
//              thread overcommit, bursty sleep/wake duty cycles).
//
// Durations are pinned per scenario rather than taken from --duration-ms:
// the latency tails are sensitive to the wake population, so the gated
// numbers are one fixed deterministic point (--quick runs the same sweep;
// the flag is accepted for CI-harness uniformity).
//
// Determinism: every run goes through the ExperimentRunner, whose results
// are bit-identical for any --jobs worker count; rows are emitted in
// canonical (scenario, policy) order regardless of execution order
// (--reverse-policies runs the sweep backwards), so fig_latency.csv and
// BENCH_latency.json are byte-identical across --jobs=1 vs --jobs=N.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/platform.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "sim/runner.h"
#include "workload/sched_replay.h"

namespace {

using sb::TimeNs;

/// The replayed interactive scenario's scheduler trace: six UI tasks with
/// staggered duty cycles (busy 400+120i us, sleep 1400+250i us) over two
/// background hogs, 200 ms span. Byte-for-byte the trace saved as
/// examples/interactive_replay.csv (the save/load round-trip is pinned by
/// tests/workload/sched_replay_test.cc).
sb::workload::ReplayTrace make_interactive_trace() {
  using sb::workload::ReplayEvent;
  std::vector<ReplayEvent> events;
  auto add = [&events](double t_us, ReplayEvent::Kind kind,
                       const std::string& task, const std::string& ref = "") {
    ReplayEvent e;
    e.kind = kind;
    e.at = static_cast<TimeNs>(std::llround(t_us * 1000.0));
    e.task = task;
    e.ref = ref;
    events.push_back(std::move(e));
  };
  const double end_us = 200000.0;
  add(0.0, ReplayEvent::Kind::Spawn, "bg/canneal", "builtin:canneal");
  add(2000.0, ReplayEvent::Kind::Spawn, "bg/custom", "builtin:canneal");
  double t = 2000.0;
  while (t + 20000.0 < end_us - 10000.0) {
    t += 20000.0;
    add(t, ReplayEvent::Kind::Sleep, "bg/custom");
    t += 3000.0;
    add(t, ReplayEvent::Kind::Wake, "bg/custom");
  }
  for (int i = 0; i < 6; ++i) {
    const std::string name = "ui" + std::to_string(i);
    const double spawn = 500.0 * i;
    add(spawn, ReplayEvent::Kind::Spawn, name, "builtin:IMB_MTHI");
    const double busy = 400.0 + 120.0 * i;
    const double sleep = 1400.0 + 250.0 * i;
    t = spawn;
    while (t + busy + sleep < end_us - 5000.0) {
      t += busy;
      add(t, ReplayEvent::Kind::Sleep, name);
      t += sleep;
      add(t, ReplayEvent::Kind::Wake, name);
    }
    if (i % 2 == 0) add(t + busy, ReplayEvent::Kind::Exit, name);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) {
                     return a.at < b.at;
                   });
  return sb::workload::ReplayTrace{std::move(events)};
}

struct Scenario {
  std::string name;
  sb::sim::WorkloadBuilder workload;
  TimeNs duration = 0;
};

std::vector<Scenario> make_scenarios() {
  using sb::sim::Simulation;
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"replayed",
       [](Simulation& s) {
         s.add_replay(sb::workload::compile_replay_schedule(
             make_interactive_trace(), {}));
       },
       sb::milliseconds(240)});
  scenarios.push_back({"bursty",
                       [](Simulation& s) {
                         s.add_benchmark("IMB_MTHI", 8);
                         s.add_benchmark("canneal", 2);
                       },
                       sb::milliseconds(240)});
  return scenarios;
}

struct Row {
  std::size_t scenario = 0;
  int policy = 0;  // 0 = vanilla, 1 = smartbalance (canonical order)
  sb::sim::SimulationResult r;
};

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;

  // --reverse-policies is the order-permutation arm of the determinism
  // matrix; strip it before the shared option parser.
  bool reverse = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reverse-policies") == 0) {
      reverse = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const auto opt =
      bench::Options::parse(static_cast<int>(args.size()), args.data());
  bench::header("Interactive latency: wake-to-run tails under SmartBalance",
                "energy-efficient balancing must not hurt responsiveness — "
                "p95/p99 wake-to-run equal or better than vanilla on every "
                "interactive scenario");

  const auto scenarios = make_scenarios();
  const std::vector<std::pair<std::string, sim::BalancerFactory>> policies = {
      {"vanilla", sim::vanilla_factory()},
      {"smartbalance", sim::smartbalance_factory(opt.smart_config())}};

  // Submission order is permutable; each spec remembers its canonical slot.
  std::vector<std::pair<std::size_t, int>> order;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (int p = 0; p < static_cast<int>(policies.size()); ++p) {
      order.push_back({s, p});
    }
  }
  if (reverse) std::reverse(order.begin(), order.end());

  const auto platform = arch::Platform::quad_heterogeneous();
  std::vector<sim::ExperimentSpec> specs;
  for (const auto& [s, p] : order) {
    sim::ExperimentSpec spec;
    spec.platform = platform;
    spec.cfg.duration = scenarios[s].duration;
    spec.cfg.seed = opt.seed;
    opt.apply_obs(spec.cfg.obs);
    spec.workload = scenarios[s].workload;
    spec.policy = policies[static_cast<std::size_t>(p)].second;
    spec.label = scenarios[s].name;
    spec.policy_name = policies[static_cast<std::size_t>(p)].first;
    specs.push_back(std::move(spec));
  }

  const auto batch = opt.runner().run(specs);
  std::vector<Row> rows;
  std::vector<std::shared_ptr<obs::RunObs>> all_obs(order.size());
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    const auto& run = batch.runs[i];
    if (!run.ok()) {
      std::cerr << "run '" << run.label << "' failed: " << run.error << "\n";
      return 1;
    }
    Row row;
    row.scenario = order[i].first;
    row.policy = order[i].second;
    row.r = run.result;
    // Restamp observability into canonical slots so merged exports are
    // identical across submission orders.
    const int canonical = static_cast<int>(
        row.scenario * policies.size() + static_cast<std::size_t>(row.policy));
    if (run.result.obs) {
      run.result.obs->run = canonical + 1;
      all_obs[static_cast<std::size_t>(canonical)] = run.result.obs;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.scenario != b.scenario ? a.scenario < b.scenario
                                    : a.policy < b.policy;
  });

  TextTable tb({"scenario", "policy", "wakes", "p50 us", "p95 us", "p99 us",
                "max us", "MIPS/W"});
  CsvWriter csv("fig_latency.csv",
                {"scenario", "policy", "wakes", "mean_us", "p50_us", "p95_us",
                 "p99_us", "max_us", "mips_w", "migrations"});
  for (const auto& row : rows) {
    const auto& lt = row.r.wake_to_run;
    const auto& policy = policies[static_cast<std::size_t>(row.policy)].first;
    tb.add_row({scenarios[row.scenario].name, policy,
                std::to_string(lt.count), TextTable::fmt(us(lt.p50_ns), 3),
                TextTable::fmt(us(lt.p95_ns), 3),
                TextTable::fmt(us(lt.p99_ns), 3),
                TextTable::fmt(us(lt.max_ns), 3),
                TextTable::fmt(row.r.ips_per_watt / 1e6, 1)});
    csv.row({scenarios[row.scenario].name, policy, std::to_string(lt.count),
             TextTable::fmt(lt.mean_ns / 1e3, 3),
             TextTable::fmt(us(lt.p50_ns), 3), TextTable::fmt(us(lt.p95_ns), 3),
             TextTable::fmt(us(lt.p99_ns), 3), TextTable::fmt(us(lt.max_ns), 3),
             TextTable::fmt(row.r.ips_per_watt / 1e6, 4),
             std::to_string(row.r.migrations)});
  }

  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_latency")
      .field("description",
             "Interactive wake-to-run latency tails, smartbalance vs "
             "vanilla, on a replayed scheduler trace and a bursty "
             "interactive mix; both excess gates (p95_excess_pct, "
             "p99_excess_pct) carry absolute ceilings of 0 — the simulation "
             "is deterministic, so any nonzero excess is a real "
             "responsiveness regression, not noise")
      .field("build", "-O2 -DNDEBUG");

  int gate_violations = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const auto& vanilla = rows[s * policies.size()].r;
    const auto& smart = rows[s * policies.size() + 1].r;
    const double p95_v = static_cast<double>(vanilla.wake_to_run.p95_ns);
    const double p95_s = static_cast<double>(smart.wake_to_run.p95_ns);
    const double p99_v = static_cast<double>(vanilla.wake_to_run.p99_ns);
    const double p99_s = static_cast<double>(smart.wake_to_run.p99_ns);
    const double p95_excess_pct =
        p95_v > 0 ? std::max(0.0, 100.0 * (p95_s / p95_v - 1.0))
                  : (p95_s > 0 ? 100.0 : 0.0);
    const double p99_excess_pct =
        p99_v > 0 ? std::max(0.0, 100.0 * (p99_s / p99_v - 1.0))
                  : (p99_s > 0 ? 100.0 : 0.0);
    const double eff_gain_pct =
        100.0 * (smart.ips_per_watt / vanilla.ips_per_watt - 1.0);
    if (p95_excess_pct > 0 || p99_excess_pct > 0) ++gate_violations;
    std::cout << scenarios[s].name << ": smartbalance vs vanilla: p99 "
              << TextTable::fmt(us(smart.wake_to_run.p99_ns), 1) << " us vs "
              << TextTable::fmt(us(vanilla.wake_to_run.p99_ns), 1)
              << " us, efficiency " << TextTable::fmt(eff_gain_pct, 2) << "%"
              << (p95_excess_pct > 0 || p99_excess_pct > 0 ? "  GATE VIOLATED"
                                                           : "")
              << "\n";

    j.begin_object("scenario_" + scenarios[s].name)
        .field("duration_ms",
               static_cast<double>(scenarios[s].duration) / 1e6)
        .field("wakes_vanilla", vanilla.wake_to_run.count)
        .field("wakes_smartbalance", smart.wake_to_run.count)
        .field("p95_vanilla_us", us(vanilla.wake_to_run.p95_ns))
        .field("p95_smartbalance_us", us(smart.wake_to_run.p95_ns))
        .field("p99_vanilla_us", us(vanilla.wake_to_run.p99_ns))
        .field("p99_smartbalance_us", us(smart.wake_to_run.p99_ns))
        .field("efficiency_gain_pct", eff_gain_pct)
        .field("p95_excess_pct", p95_excess_pct)
        .field("p99_excess_pct", p99_excess_pct);
    j.begin_object("max_allowed")
        .field("p95_excess_pct", 0.0)
        .field("p99_excess_pct", 0.0)
        .end_object();
    j.end_object();
  }
  std::cout << tb << "Series written to fig_latency.csv\n";
  bench::print_batch_summary(batch.summary);

  j.begin_object("summary")
      .field("scenarios", static_cast<int>(scenarios.size()))
      .field("gate_violations", gate_violations)
      .end_object();
  j.end_object();
  j.write("BENCH_latency.json");

  std::vector<const obs::RunObs*> runs;
  for (const auto& o : all_obs) runs.push_back(o.get());
  const int status = opt.write_exports(runs);
  return gate_violations == 0 ? status : 1;
}
