// Fig. 8 — (a) iteration budget (Opt_max_iter) per scalability scenario and
// the resulting distance-to-optimal on synthetic instances whose optimal
// solution is known; (b) the remaining optimization parameter values.
//
// Known-optimum construction: thread i is "matched" to core i mod n with a
// dominant efficiency entry; the allocation mapping every thread to its
// matched core maximizes every per-core ratio simultaneously, so its J is
// the global optimum. Small instances are cross-checked by exhaustive
// enumeration.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/objective.h"
#include "core/sa_optimizer.h"

namespace {

using namespace sb;

struct KnownInstance {
  Matrix s, p;
  std::vector<CoreId> matched;
  double optimum = 0;
};

KnownInstance make_known(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  KnownInstance inst{Matrix(static_cast<std::size_t>(m),
                            static_cast<std::size_t>(n)),
                     Matrix(static_cast<std::size_t>(m),
                            static_cast<std::size_t>(n)),
                     {},
                     0.0};
  for (int i = 0; i < m; ++i) {
    const CoreId home = static_cast<CoreId>(i % n);
    inst.matched.push_back(home);
    for (int j = 0; j < n; ++j) {
      if (j == home) {
        inst.s.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            5.0 * rng.uniform(0.95, 1.05);
        inst.p.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            0.5;
      } else {
        inst.s.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            0.8 * rng.uniform(0.9, 1.1);
        inst.p.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
            1.2;
      }
    }
  }
  core::EnergyEfficiencyObjective obj;
  inst.optimum = core::evaluate_allocation(inst.s, inst.p, obj, inst.matched);
  return inst;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::header("Fig. 8: SA iteration budget and distance to optimal",
                "(a) Opt_max_iter per scenario with distance-to-optimal on "
                "known-optimum instances; (b) parameter values");

  std::vector<std::pair<int, int>> scenarios = {{2, 4},   {4, 8},   {8, 16},
                                                {16, 32}, {32, 64}, {64, 128},
                                                {128, 256}};
  if (opt.quick) scenarios.resize(5);

  core::EnergyEfficiencyObjective obj;
  TextTable t({"cores", "threads", "Opt_max_iter", "distance to optimal %",
               "verified vs exhaustive"});
  CsvWriter csv("fig8_sa_quality.csv",
                {"cores", "threads", "max_iter", "distance_pct"});
  const int repeats = opt.quick ? 3 : 8;
  for (const auto& [n, m] : scenarios) {
    const int iters = core::sa_auto_iterations(n, m);
    RunningStats distance;
    bool verified = false;
    for (int r = 0; r < repeats; ++r) {
      const auto inst = make_known(n, m, opt.seed + static_cast<std::uint64_t>(r));
      // Random start: a freshly perturbed system (threads land anywhere);
      // epoch-to-epoch operation warm-starts from the previous allocation,
      // which is easier than this.
      Rng init_rng(opt.seed + 77 + static_cast<std::uint64_t>(r));
      std::vector<CoreId> initial(static_cast<std::size_t>(m));
      for (auto& c : initial) {
        c = static_cast<CoreId>(init_rng.randi(0, n));
      }
      core::SaConfig cfg;
      cfg.max_iterations = iters;
      cfg.seed = opt.seed ^ (static_cast<std::uint64_t>(r) << 8);
      const auto res =
          core::SaOptimizer(cfg).optimize(inst.s, inst.p, obj, initial);
      distance.add(100.0 * (inst.optimum - res.objective) / inst.optimum);
      // Cross-check the known optimum by brute force where feasible.
      if (r == 0 && m <= 8 && n <= 4) {
        const auto brute = core::exhaustive_optimum(inst.s, inst.p, obj);
        verified = brute.objective <= inst.optimum + 1e-9;
      }
    }
    t.add_row({std::to_string(n), std::to_string(m), std::to_string(iters),
               TextTable::fmt(distance.mean(), 2) + " (max " +
                   TextTable::fmt(distance.max(), 2) + ")",
               m <= 8 && n <= 4 ? (verified ? "yes" : "FAILED") : "-"});
    csv.row({std::to_string(n), std::to_string(m), std::to_string(iters),
             TextTable::fmt(distance.mean(), 4)});
  }
  std::cout << "(a) iteration budget & solution quality:\n" << t << "\n";

  TextTable tb({"parameter", "value"});
  tb.add_row({"Opt_perturb (initial)",
              TextTable::fmt(core::kSaInitialPerturb, 2)});
  tb.add_row({"Opt_dperturb (decay/iter)",
              TextTable::fmt(core::kSaPerturbDecay, 3)});
  tb.add_row({"Opt_accept (initial, relative to |J0|)",
              TextTable::fmt(core::kSaInitialAcceptRel, 3)});
  tb.add_row({"Opt_daccept (decay/iter)",
              TextTable::fmt(core::kSaAcceptDecay, 3)});
  tb.add_row({"acceptance arithmetic", "Q16.16 fixed-point e^x + randi mod"});
  std::cout << "(b) optimization parameters:\n" << tb
            << "\nSeries written to fig8_sa_quality.csv\n";
  return 0;
}
