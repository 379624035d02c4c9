// fig_slo — burn-rate SLOs on a bursty heterogeneous rack.
//
// The telemetry-plane acceptance scenario: a mixed rack (quad-HMP boards
// next to big.LITTLE boards) under a bursty job stream, operated against a
// joint latency + energy SLO of the kind a fleet operator actually
// promises:
//
//   p99_wake_us < kWakeBudgetUs   (dispatch-to-first-run tail)
//   je > kJeFloor                 (fleet-wide instructions per joule)
//
// evaluated online by the obs::SloEngine over the sampled `#sb-tsdb`
// frames with rolling burn-rate windows. The claim, gated with absolute
// ceilings of 0 in BENCH_slo.json: the energy-aware dispatcher meets the
// SLO end-to-end (zero breaches), while round-robin placement burns
// through the error budget (at least one breach) — the same jobs, the
// same nodes, the same windows; only placement differs.
//
// Determinism: the arrival stream and node simulations are bit-exact for
// any worker count, and the SLO engine consumes only simulated-time
// frames, so breach counts are exact integers — the ceilings are 0, not
// noise budgets.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/table.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace {

using sb::fleet::DispatchPolicy;

// The promised SLO. The floor targets je_w — windowed inst/J, the rack's
// current operating point — rather than cumulative J_E, which ramps from
// zero and would make any fixed floor duration-sensitive. 1000 Minst/J
// sits between the dispatchers' per-window distributions on this rack:
// round-robin's worst 200 ms window holds 9-10 violating frames at both
// CI and full durations, energy-aware's holds 4, so a 30% burn budget
// (breach above 6 of 20 frames) separates them with margin on both sides.
// The wake budget holds the dispatch-to-run tail within 20 ms; both
// dispatchers meet it here — the energy floor is what round-robin burns.
constexpr double kJeFloorMinstPerJoule = 1000.0;
constexpr double kWakeBudgetUs = 20000.0;
const char* kSloSpec =
    "je_w>1e9:burn=0.3:window=200,p99_wake_us<20000:burn=0.3:window=200";

std::uint64_t slo_breaches(const sb::fleet::FleetResult& r) {
  if (!r.obs) return 0;
  const auto& counters = r.obs->metrics.counters();
  const auto it = counters.find("slo.breaches");
  return it != counters.end() ? it->second.value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  const auto opt = bench::Options::parse(argc, argv);
  opt.reject_fleet_unsupported("fig_slo");
  bench::header("Burn-rate SLOs: energy-aware dispatch vs round-robin",
                "the p99+energy SLO the telemetry plane watches online: "
                "energy-aware placement keeps the error budget, rr burns it");

  // Four-node mixed rack: the big.LITTLE boards hold the efficient cores,
  // so placement decides fleet-wide inst/J. The rate leaves headroom for
  // good placement but lets bursts pile queues on misplaced jobs.
  std::vector<arch::Platform> nodes;
  for (int i = 0; i < 2; ++i) nodes.push_back(arch::Platform::quad_heterogeneous());
  for (int i = 0; i < 2; ++i) nodes.push_back(arch::Platform::octa_big_little());

  TextTable tb({"policy", "arrived", "done", "Minst/J", "p99 wake ms",
                "breaches"});

  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_slo")
      .field("description",
             "Joint p99-wake + inst/J burn-rate SLO on a bursty mixed rack "
             "(2 quad-HMP + 2 big.LITTLE nodes), evaluated online by the "
             "obs::SloEngine: the energy-aware dispatcher must finish with "
             "zero breaches and round-robin must burn through the budget. "
             "Deterministic simulation -> ceilings are exact zeros.")
      .field("build", "-O2 -DNDEBUG")
      .field("slo", kSloSpec)
      .field("je_floor_minst_per_joule", kJeFloorMinstPerJoule)
      .field("wake_budget_us", kWakeBudgetUs);

  struct Row {
    DispatchPolicy policy;
    const char* key;
  };
  const std::vector<Row> arms = {{DispatchPolicy::kRoundRobin, "rr"},
                                 {DispatchPolicy::kEnergyAware, "energy"}};
  std::uint64_t breaches_by_arm[2] = {0, 0};
  double je_by_arm[2] = {0, 0};
  // Every arm's fleet and node records for --trace/--metrics-json.
  std::vector<std::shared_ptr<obs::RunObs>> all_obs;
  int obs_run_base = 0;

  for (std::size_t i = 0; i < arms.size(); ++i) {
    fleet::FleetConfig cfg;
    cfg.nodes = static_cast<int>(nodes.size());
    cfg.policy = arms[i].policy;
    cfg.rate_hz = 340.0;
    cfg.duration = opt.duration;
    cfg.seed = opt.seed;
    cfg.step_jobs = opt.jobs;
    cfg.obs.slo = obs::SloConfig::parse(kSloSpec);
    cfg.obs.trace = !opt.trace.empty();
    cfg.obs.metrics = opt.metrics;
    cfg.node_obs = opt.metrics || !opt.trace.empty();
    fleet::FleetSimulation f(cfg, nodes);
    const fleet::FleetResult r = f.run();

    // The figure's data series: each arm's `#sb-tsdb` export (watch with
    // `sbtop --once fig_slo_rr.csv`; slo.burn.* rows show the budget burn).
    if (r.obs) {
      obs::write_timeseries_file(
          "fig_slo_" + std::string(arms[i].key) + ".csv", {r.obs.get()});
    }
    // After the arm's own export, which numbers the fleet run 0.
    bench::append_fleet_obs(r, cfg.nodes, obs_run_base, all_obs);

    breaches_by_arm[i] = slo_breaches(r);
    je_by_arm[i] = r.je_inst_per_joule;
    tb.add_row({r.dispatch_policy, std::to_string(r.jobs_arrived),
                std::to_string(r.jobs_completed),
                TextTable::fmt(r.je_inst_per_joule / 1e6, 1),
                TextTable::fmt(static_cast<double>(r.wake.p99_ns) / 1e6, 3),
                std::to_string(breaches_by_arm[i])});

    j.begin_object(std::string(arms[i].key) + "_arm")
        .field("jobs_arrived", r.jobs_arrived)
        .field("jobs_completed", r.jobs_completed)
        .field("je_minst_per_joule", r.je_inst_per_joule / 1e6)
        .field("p99_wake_ms", static_cast<double>(r.wake.p99_ns) / 1e6)
        .field("slo_breaches", static_cast<double>(breaches_by_arm[i]))
        .end_object();
  }
  std::cout << tb;

  // The gated section. energy_breaches: the energy-aware dispatcher kept
  // the SLO (0 allowed). rr_meets_slo: 1 would mean round-robin also kept
  // it — the scenario lost its discriminating power — so its ceiling is 0
  // too: the gate fails loudly instead of going green-by-vacuity.
  const double energy_breaches = static_cast<double>(breaches_by_arm[1]);
  const double rr_meets_slo = breaches_by_arm[0] == 0 ? 1.0 : 0.0;
  const bool violated = energy_breaches > 0 || rr_meets_slo > 0;
  std::cout << "rr breaches: " << breaches_by_arm[0]
            << ", energy breaches: " << breaches_by_arm[1]
            << ", je rr->energy: "
            << TextTable::fmt(je_by_arm[0] / 1e6, 1) << " -> "
            << TextTable::fmt(je_by_arm[1] / 1e6, 1) << " Minst/J"
            << (violated ? "  GATE VIOLATED" : "") << "\n";

  j.begin_object("slo_gate")
      .field("energy_breaches", energy_breaches)
      .field("rr_breaches", static_cast<double>(breaches_by_arm[0]))
      .field("rr_meets_slo", rr_meets_slo);
  j.begin_object("max_allowed")
      .field("energy_breaches", 0.0)
      .field("rr_meets_slo", 0.0)
      .end_object();
  j.end_object();
  j.end_object();
  j.write("BENCH_slo.json");

  std::vector<const obs::RunObs*> runs;
  for (const auto& o : all_obs) runs.push_back(o.get());
  const int status = opt.write_exports(runs);
  return violated ? 1 : status;
}
