// fig_fleet — fleet-scale dispatch policy comparison on heterogeneous racks.
//
// Tentpole claim: an energy-aware dispatcher that places each job by its
// predicted marginal energy (the node predictor's IPC/power model evaluated
// per core type, best instructions-per-joule wins) beats round-robin on
// fleet-wide instructions per joule WITHOUT giving up tail latency — p99
// arrival-to-first-run must stay equal or better — on every gated fleet
// shape. The shapes mix node platforms (quad-HMP next to big.LITTLE and
// scaled-HMP nodes) so placement has real energy leverage: the same job
// class costs measurably different joules depending on which rack slot
// takes it.
//
// Determinism: the arrival stream is a pure function of (seed, rate, shape
// of the arrival process) and the per-node simulations are bit-exact for
// any worker count, so fig_fleet.csv and BENCH_fleet.json are byte-identical
// for --jobs=1 vs --jobs=N and for any policy execution order
// (--reverse-policies runs the sweep backwards; rows are emitted in
// canonical order either way). That is what lets the BENCH gates below pin
// zero-tolerance ceilings instead of noise budgets.
//
// Writes BENCH_fleet.json: one section per fleet shape carrying the
// round-robin / least-loaded / energy-aware metrics and two gated
// quality metrics with absolute ceilings of 0:
//   je_deficit_pct  — max(0, how far energy-aware falls short of
//                     round-robin on fleet-wide inst/J, in %)
//   p99_excess_pct  — max(0, how much worse its p99 arrival-to-run is, %)
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/table.h"
#include "fleet/fleet.h"

namespace {

using sb::fleet::DispatchPolicy;

struct Shape {
  std::string name;
  std::vector<sb::arch::Platform> nodes;
  double rate_hz = 300.0;
  double load_cap = 1.5;
  /// Idle-node surcharge. Zero here: rack nodes burn static power for the
  /// whole window whether or not they host work, so consolidating onto
  /// awake nodes saves nothing and only lengthens runqueues — the bias
  /// exists for fleets that can power-gate drained nodes.
  double consolidation_bias = 0.0;
};

/// The two gated rack shapes. Node mixes are deliberately heterogeneous:
/// energy-aware placement only has leverage when the same job class costs
/// different joules on different rack slots.
std::vector<Shape> make_shapes() {
  using sb::arch::Platform;
  std::vector<Shape> shapes;
  {
    // Six nodes: three 4-core quad-HMP boards next to three 8-core
    // big.LITTLE boards. The big.LITTLE nodes hold the efficient cores.
    Shape s;
    s.name = "mixed_rack";
    for (int i = 0; i < 3; ++i) s.nodes.push_back(Platform::quad_heterogeneous());
    for (int i = 0; i < 3; ++i) s.nodes.push_back(Platform::octa_big_little());
    s.rate_hz = 380.0;
    shapes.push_back(std::move(s));
  }
  {
    // Eight nodes at a different mix and scale: two double-size scaled-HMP
    // boards (8 cores spanning all four paper core types), two quad-HMP
    // boards, and four big.LITTLE boards.
    Shape s;
    s.name = "asym_rack";
    for (int i = 0; i < 2; ++i)
      s.nodes.push_back(Platform::scaled_heterogeneous(2));
    for (int i = 0; i < 2; ++i) s.nodes.push_back(Platform::quad_heterogeneous());
    for (int i = 0; i < 4; ++i) s.nodes.push_back(Platform::octa_big_little());
    s.rate_hz = 340.0;
    shapes.push_back(std::move(s));
  }
  return shapes;
}

struct PolicyRow {
  DispatchPolicy policy = DispatchPolicy::kRoundRobin;
  sb::fleet::FleetResult r;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;

  // --reverse-policies is fig_fleet-specific (the policy-permutation arm of
  // the determinism matrix); strip it before the shared option parser.
  bool reverse_policies = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reverse-policies") == 0) {
      reverse_policies = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const auto opt =
      bench::Options::parse(static_cast<int>(args.size()), args.data());
  opt.reject_fleet_unsupported("fig_fleet");
  bench::header("Fleet dispatch: energy-aware vs round-robin racks",
                "sensing-driven placement extends the per-node energy story "
                "fleet-wide: better inst/J at equal-or-better p99 latency");

  const auto shapes = make_shapes();
  std::vector<DispatchPolicy> policies = {DispatchPolicy::kRoundRobin,
                                          DispatchPolicy::kLeastLoaded,
                                          DispatchPolicy::kEnergyAware};
  if (reverse_policies) std::reverse(policies.begin(), policies.end());

  TextTable tb({"shape", "policy", "arrived", "done", "deferred", "Minst/J",
                "p99 a2r ms", "p99 sojourn ms"});
  CsvWriter csv("fig_fleet.csv",
                {"shape", "policy", "nodes", "jobs_arrived", "jobs_dispatched",
                 "jobs_completed", "jobs_deferred", "instructions",
                 "je_minst_per_joule", "p99_arrival_to_run_ms",
                 "p99_sojourn_ms"});

  // Collected observability (only when --trace/--metrics asked): run ids are
  // restamped per fleet run so the merged export keeps one lane per run.
  std::vector<std::shared_ptr<obs::RunObs>> all_obs;
  int obs_run_base = 0;

  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_fleet")
      .field("description",
             "Fleet dispatch policy comparison on heterogeneous racks: "
             "fleet-wide inst/J and p99 arrival-to-run of the energy-aware "
             "dispatcher vs round-robin and least-loaded; both quality "
             "gates (je_deficit_pct, p99_excess_pct) carry absolute "
             "ceilings of 0 — the simulation is deterministic, so any "
             "nonzero value is a real quality regression, not noise")
      .field("build", "-O2 -DNDEBUG");

  int gate_violations = 0;
  for (const auto& shape : shapes) {
    std::vector<PolicyRow> rows;
    for (const auto policy : policies) {
      fleet::FleetConfig cfg;
      cfg.nodes = static_cast<int>(shape.nodes.size());
      cfg.policy = policy;
      cfg.rate_hz = shape.rate_hz;
      cfg.duration = opt.duration;
      cfg.seed = opt.seed;
      cfg.step_jobs = opt.jobs;
      cfg.load_cap = shape.load_cap;
      cfg.consolidation_bias = shape.consolidation_bias;
      cfg.obs.trace = !opt.trace.empty();
      cfg.obs.metrics = opt.metrics;
      cfg.node_obs = opt.metrics || !opt.trace.empty();
      fleet::FleetSimulation f(cfg, shape.nodes);
      PolicyRow row;
      row.policy = policy;
      row.r = f.run();
      bench::append_fleet_obs(row.r, cfg.nodes, obs_run_base, all_obs);
      rows.push_back(std::move(row));
    }
    // Canonical row order regardless of execution order.
    std::sort(rows.begin(), rows.end(),
              [](const PolicyRow& a, const PolicyRow& b) {
                return static_cast<int>(a.policy) < static_cast<int>(b.policy);
              });

    const fleet::FleetResult* rr = nullptr;
    const fleet::FleetResult* energy = nullptr;
    for (const auto& row : rows) {
      const auto& r = row.r;
      if (row.policy == DispatchPolicy::kRoundRobin) rr = &r;
      if (row.policy == DispatchPolicy::kEnergyAware) energy = &r;
      const double je_m = r.je_inst_per_joule / 1e6;
      const double p99_a2r_ms =
          static_cast<double>(r.p99_dispatch_to_run_ns) / 1e6;
      const double p99_soj_ms = static_cast<double>(r.sojourn.p99_ns) / 1e6;
      tb.add_row({shape.name, r.dispatch_policy,
                  std::to_string(r.jobs_arrived),
                  std::to_string(r.jobs_completed),
                  std::to_string(r.jobs_deferred), TextTable::fmt(je_m, 1),
                  TextTable::fmt(p99_a2r_ms, 3),
                  TextTable::fmt(p99_soj_ms, 3)});
      csv.row({shape.name, r.dispatch_policy, std::to_string(r.nodes),
               std::to_string(r.jobs_arrived),
               std::to_string(r.jobs_dispatched),
               std::to_string(r.jobs_completed),
               std::to_string(r.jobs_deferred), std::to_string(r.instructions),
               TextTable::fmt(je_m, 4), TextTable::fmt(p99_a2r_ms, 4),
               TextTable::fmt(p99_soj_ms, 4)});
    }

    // --- the gated comparison: energy-aware vs round-robin ----------------
    const double je_rr = rr->je_inst_per_joule;
    const double je_en = energy->je_inst_per_joule;
    const double p99_rr = static_cast<double>(rr->p99_dispatch_to_run_ns);
    const double p99_en = static_cast<double>(energy->p99_dispatch_to_run_ns);
    const double je_deficit_pct =
        std::max(0.0, 100.0 * (1.0 - je_en / je_rr));
    const double p99_excess_pct =
        p99_rr > 0 ? std::max(0.0, 100.0 * (p99_en / p99_rr - 1.0)) : 0.0;
    const double je_gain_pct = 100.0 * (je_en / je_rr - 1.0);
    if (je_deficit_pct > 0 || p99_excess_pct > 0) ++gate_violations;
    std::cout << shape.name << ": energy-aware vs rr: inst/J "
              << TextTable::fmt(je_gain_pct, 2) << "%, p99 a2r "
              << TextTable::fmt(p99_en / 1e6, 3) << " ms vs "
              << TextTable::fmt(p99_rr / 1e6, 3) << " ms"
              << (je_deficit_pct > 0 || p99_excess_pct > 0 ? "  GATE VIOLATED"
                                                           : "")
              << "\n";

    j.begin_object("shape_" + shape.name)
        .field("nodes", static_cast<int>(shape.nodes.size()))
        .field("rate_hz", shape.rate_hz)
        .field("jobs_arrived", rr->jobs_arrived)
        .field("je_rr_minst_per_joule", je_rr / 1e6)
        .field("je_energy_minst_per_joule", je_en / 1e6)
        .field("je_gain_pct", je_gain_pct)
        .field("p99_rr_ms", p99_rr / 1e6)
        .field("p99_energy_ms", p99_en / 1e6)
        .field("je_deficit_pct", je_deficit_pct)
        .field("p99_excess_pct", p99_excess_pct);
    j.begin_object("max_allowed")
        .field("je_deficit_pct", 0.0)
        .field("p99_excess_pct", 0.0)
        .end_object();
    j.end_object();
  }
  std::cout << tb << "Series written to fig_fleet.csv\n";

  j.begin_object("summary")
      .field("shapes", static_cast<int>(shapes.size()))
      .field("gate_violations", gate_violations)
      .end_object();
  j.end_object();
  j.write("BENCH_fleet.json");

  std::vector<const obs::RunObs*> runs;
  for (const auto& o : all_obs) runs.push_back(o.get());
  const int status = opt.write_exports(runs);
  return gate_violations == 0 ? status : 1;
}
