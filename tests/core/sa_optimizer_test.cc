#include "core/sa_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <bitset>
#include <stdexcept>

#include "common/rng.h"
#include "core/objective.h"

namespace sb::core {
namespace {

/// Random instance where thread i's GIPS/power on core j are drawn so that
/// matching matters.
struct Instance {
  Matrix s, p;
  std::vector<CoreId> initial;
};

Instance random_instance(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst{Matrix(m, n), Matrix(m, n), {}};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      inst.s.at(i, j) = rng.uniform(0.1, 4.0);
      inst.p.at(i, j) = rng.uniform(0.05, 3.0);
    }
    inst.initial.push_back(static_cast<CoreId>(rng.randi(0, static_cast<std::int64_t>(n))));
  }
  return inst;
}

TEST(EvaluateAllocation, MatchesHandComputation) {
  // 2 threads, 2 cores; both on core 0.
  Matrix s = {{2.0, 1.0}, {4.0, 0.5}};
  Matrix p = {{1.0, 0.2}, {1.0, 0.3}};
  EnergyEfficiencyObjective obj;
  // core0: (2+4)/(1+1)=3 ; core1 idle: 0.
  EXPECT_DOUBLE_EQ(evaluate_allocation(s, p, obj, {0, 0}), 3.0);
  // split: 2/1 + 0.5/0.3
  EXPECT_NEAR(evaluate_allocation(s, p, obj, {0, 1}), 2.0 + 0.5 / 0.3, 1e-12);
}

TEST(EvaluateAllocation, ShapeChecked) {
  EnergyEfficiencyObjective obj;
  EXPECT_THROW(evaluate_allocation(Matrix(2, 2), Matrix(2, 3), obj, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW(evaluate_allocation(Matrix(2, 2), Matrix(2, 2), obj, {0}),
               std::invalid_argument);
  // Core ids outside [0, n) would index past the per-core sums.
  EXPECT_THROW(evaluate_allocation(Matrix(2, 2), Matrix(2, 2), obj, {0, 5}),
               std::invalid_argument);
  EXPECT_THROW(evaluate_allocation(Matrix(2, 2), Matrix(2, 2), obj, {-1, 0}),
               std::invalid_argument);
}

TEST(Objectives, CoreTermSemantics) {
  auto sums = [](double g, double w, int n) {
    CoreSums s;
    s.gips = g;
    s.watts = w;
    s.load = n;
    s.nthreads = n;
    return s;
  };
  EnergyEfficiencyObjective ee;
  EXPECT_DOUBLE_EQ(ee.core_term(sums(4.0, 2.0, 3), 0), 2.0);
  EXPECT_DOUBLE_EQ(ee.core_term(sums(4.0, 2.0, 0), 0), 0.0);  // idle core
  EXPECT_DOUBLE_EQ(ee.core_term(sums(4.0, 0.0, 2), 0), 0.0);  // degenerate

  ThroughputObjective tp;
  EXPECT_DOUBLE_EQ(tp.core_term(sums(4.0, 99.0, 2), 0), 2.0);  // time-shared
  EXPECT_DOUBLE_EQ(tp.core_term(sums(4.0, 99.0, 0), 0), 0.0);

  EdpObjective edp;
  EXPECT_DOUBLE_EQ(edp.core_term(sums(4.0, 2.0, 2), 0), 4.0);  // (4/2)²/(2/2)
  EXPECT_EQ(ee.name(), "ips_per_watt");
}

TEST(Objectives, Eq11PerCoreWeights) {
  // ω = {1, 3}: the weighted core contributes 3× its ratio (Eq. 11's "can
  // be tuned to give preference to certain cores").
  EnergyEfficiencyObjective weighted(std::vector<double>{1.0, 3.0});
  CoreSums s;
  s.gips = 4.0;
  s.watts = 2.0;
  s.nthreads = 1;
  EXPECT_DOUBLE_EQ(weighted.core_term(s, 0), 2.0);
  EXPECT_DOUBLE_EQ(weighted.core_term(s, 1), 6.0);
  EXPECT_DOUBLE_EQ(weighted.core_term(s, 7), 2.0);  // beyond vector: ω = 1
}

TEST(SaOptimizer, ImprovesOrMatchesInitial) {
  const auto inst = random_instance(8, 4, 11);
  EnergyEfficiencyObjective obj;
  SaOptimizer opt;
  const auto r = opt.optimize(inst.s, inst.p, obj, inst.initial);
  EXPECT_GE(r.objective, r.initial_objective);
  EXPECT_EQ(r.allocation.size(), 8u);
  EXPECT_NEAR(evaluate_allocation(inst.s, inst.p, obj, r.allocation),
              r.objective, 1e-9)
      << "incremental objective must agree with the reference evaluation";
}

class SaVsExhaustive
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SaVsExhaustive, NearOptimalOnSmallInstances) {
  const auto [m, n, seed] = GetParam();
  const auto inst = random_instance(static_cast<std::size_t>(m),
                                    static_cast<std::size_t>(n),
                                    static_cast<std::uint64_t>(seed));
  EnergyEfficiencyObjective obj;
  const auto best = exhaustive_optimum(inst.s, inst.p, obj);
  SaConfig cfg;
  cfg.max_iterations = 3000;
  cfg.seed = 42;
  const auto r = SaOptimizer(cfg).optimize(inst.s, inst.p, obj, inst.initial);
  EXPECT_GE(r.objective, 0.92 * best.objective)
      << "m=" << m << " n=" << n << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, SaVsExhaustive,
    ::testing::Values(std::make_tuple(4, 2, 1), std::make_tuple(6, 3, 2),
                      std::make_tuple(8, 4, 3), std::make_tuple(8, 4, 4),
                      std::make_tuple(10, 3, 5), std::make_tuple(5, 4, 6),
                      std::make_tuple(9, 2, 7), std::make_tuple(7, 4, 8)));

TEST(SaOptimizer, RespectsAffinity) {
  const auto inst = random_instance(6, 3, 21);
  EnergyEfficiencyObjective obj;
  std::vector<std::bitset<kMaxCores>> affinity(6);
  for (auto& a : affinity) a.set();  // all allowed...
  affinity[2].reset();
  affinity[2].set(1);  // ...except thread 2 pinned to core 1
  std::vector<CoreId> initial = inst.initial;
  initial[2] = 1;
  const auto r =
      SaOptimizer().optimize(inst.s, inst.p, obj, initial, &affinity);
  EXPECT_EQ(r.allocation[2], 1);
}

TEST(SaOptimizer, DemandWeightingShrinksSleepyThreads) {
  // Thread 0 is CPU-bound (unbounded demand); thread 1 demands only
  // 0.05 GIPS. With demand weighting the busy thread dominates the score.
  Matrix s = {{2.0, 0.5}, {4.0, 0.1}};
  Matrix p = {{0.5, 0.1}, {2.0, 0.2}};
  EnergyEfficiencyObjective obj;
  std::vector<double> demand = {-1.0, 0.05};
  SaConfig cfg;
  cfg.max_iterations = 500;
  const auto r =
      SaOptimizer(cfg).optimize(s, p, obj, {0, 0}, nullptr, &demand);
  // Busy thread alone on core 0 yields 2/0.5 = 4; the sleepy thread's
  // contribution wherever it lands is efficiency-neutral-ish.
  EXPECT_GT(r.objective, 3.5);
}

TEST(SaOptimizer, DemandSaturatesOnSlowCores) {
  // A thread demanding 1.0 GIPS on a core that can only do 0.5 GIPS
  // saturates: it contributes the core's full capability, not its demand.
  Matrix s = {{2.0, 0.5}};
  Matrix p = {{1.0, 0.1}};
  EnergyEfficiencyObjective obj;
  std::vector<double> demand = {1.0};
  // Forced onto core 1 (only option via affinity).
  std::vector<std::bitset<kMaxCores>> aff(1);
  aff[0].set(1);
  SaConfig cfg;
  cfg.max_iterations = 50;
  const auto r = SaOptimizer(cfg).optimize(s, p, obj, {1}, &aff, &demand);
  // occupancy = min(1, 1.0/0.5) = 1 → term = 0.5/0.1 = 5.
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
}

TEST(SaOptimizer, DeterministicPerSeed) {
  const auto inst = random_instance(10, 4, 33);
  EnergyEfficiencyObjective obj;
  SaConfig cfg;
  cfg.seed = 7;
  const auto a = SaOptimizer(cfg).optimize(inst.s, inst.p, obj, inst.initial);
  const auto b = SaOptimizer(cfg).optimize(inst.s, inst.p, obj, inst.initial);
  EXPECT_EQ(a.allocation, b.allocation);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(SaOptimizer, FixedVsFloatAcceptanceBothConverge) {
  const auto inst = random_instance(8, 4, 55);
  EnergyEfficiencyObjective obj;
  const auto best = exhaustive_optimum(inst.s, inst.p, obj);
  for (bool fixed : {true, false}) {
    SaConfig cfg;
    cfg.max_iterations = 6000;
    cfg.fixed_point_acceptance = fixed;
    const auto r = SaOptimizer(cfg).optimize(inst.s, inst.p, obj, inst.initial);
    EXPECT_GE(r.objective, 0.88 * best.objective) << "fixed=" << fixed;
  }
}

TEST(SaOptimizer, AutoIterationsScaleAndSaturate) {
  EXPECT_GT(sa_auto_iterations(8, 16), sa_auto_iterations(2, 4));
  EXPECT_EQ(sa_auto_iterations(128, 256), 60000);  // capped (Fig. 8a)
  EXPECT_GE(sa_auto_iterations(1, 1), 100);
}

TEST(SaOptimizer, ValidatesInput) {
  EnergyEfficiencyObjective obj;
  SaOptimizer opt;
  EXPECT_THROW(opt.optimize(Matrix(), Matrix(), obj, {}),
               std::invalid_argument);
  EXPECT_THROW(
      opt.optimize(Matrix(2, 2), Matrix(2, 2), obj, {0, 5}),
      std::invalid_argument);
  EXPECT_THROW(opt.optimize(Matrix(2, 2), Matrix(2, 3), obj, {0, 0}),
               std::invalid_argument);
  std::vector<double> utils = {1.0};
  EXPECT_THROW(
      opt.optimize(Matrix(2, 2), Matrix(2, 2), obj, {0, 0}, nullptr, &utils),
      std::invalid_argument);
  // One mask for four threads: rows 1-3 have none to read.
  std::vector<std::bitset<kMaxCores>> masks(1);
  masks[0].set();
  EXPECT_THROW(opt.optimize(Matrix(4, 2, 1.0), Matrix(4, 2, 1.0), obj,
                            {0, 1, 0, 1}, &masks),
               std::invalid_argument);
}

TEST(ExhaustiveOptimum, RefusesHugeInstances) {
  EnergyEfficiencyObjective obj;
  EXPECT_THROW(exhaustive_optimum(Matrix(30, 8), Matrix(30, 8), obj),
               std::invalid_argument);
}

TEST(ExhaustiveOptimum, FindsKnownOptimum) {
  // Construct an instance with an obvious perfect matching: thread i is
  // outstanding on core i and terrible elsewhere.
  const std::size_t n = 3;
  Matrix s(n, n, 0.1), p(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    s.at(i, i) = 5.0;
    p.at(i, i) = 0.5;
  }
  EnergyEfficiencyObjective obj;
  const auto best = exhaustive_optimum(s, p, obj);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(best.allocation[i], static_cast<CoreId>(i));
  }
  EXPECT_NEAR(best.objective, 3 * 10.0, 1e-9);
}

TEST(SaOptimizer, ScratchReuseIsDeterministic) {
  // One optimizer instance, repeated calls: the scratch arena carries over
  // but results must be independent of prior calls — including calls on a
  // *different* (larger) instance in between, which grows every buffer.
  const auto inst = random_instance(8, 4, 77);
  const auto big = random_instance(24, 8, 78);
  EnergyEfficiencyObjective obj;
  SaConfig cfg;
  cfg.seed = 9;
  SaOptimizer reused(cfg);
  const auto first = reused.optimize(inst.s, inst.p, obj, inst.initial);
  (void)reused.optimize(big.s, big.p, obj, big.initial);
  const auto again = reused.optimize(inst.s, inst.p, obj, inst.initial);
  EXPECT_EQ(again.allocation, first.allocation);
  EXPECT_DOUBLE_EQ(again.objective, first.objective);

  const auto fresh = SaOptimizer(cfg).optimize(inst.s, inst.p, obj,
                                               inst.initial);
  EXPECT_EQ(fresh.allocation, first.allocation);
  EXPECT_DOUBLE_EQ(fresh.objective, first.objective);
}

TEST(SaOptimizer, CustomObjectiveMatchesDevirtualizedBuiltin) {
  // A user-defined objective (kind() == kCustom) computing the same
  // per-core term as the built-in EE must reproduce the devirtualized
  // kernel's trajectory exactly: same RNG draws, same FP expression order,
  // so allocation and objective are bit-identical.
  class CustomEe : public BalanceObjective {
   public:
    double core_term(const CoreSums& s, CoreId /*core*/) const override {
      if (s.nthreads == 0 || s.watts <= 0) return 0.0;
      return 1.0 * s.gips / s.watts;
    }
    std::string name() const override { return "custom_ee"; }
  };
  const auto inst = random_instance(10, 4, 91);
  SaConfig cfg;
  cfg.seed = 13;
  cfg.max_iterations = 2000;
  EnergyEfficiencyObjective builtin;
  CustomEe custom;
  ASSERT_EQ(custom.kind(), ObjectiveKind::kCustom);
  const auto a = SaOptimizer(cfg).optimize(inst.s, inst.p, builtin,
                                           inst.initial);
  const auto b = SaOptimizer(cfg).optimize(inst.s, inst.p, custom,
                                           inst.initial);
  EXPECT_EQ(b.allocation, a.allocation);
  EXPECT_DOUBLE_EQ(b.objective, a.objective);
  EXPECT_EQ(b.accepted_worse, a.accepted_worse);
  EXPECT_EQ(b.improved, a.improved);
}

TEST(ExhaustiveOptimum, GrayCodeMatchesBruteForce) {
  // The Gray-code walk evaluates every allocation via single-move deltas;
  // cross-check the reported optimum against a naive full enumeration with
  // independent full recomputes.
  const std::size_t m = 5, n = 3;  // 3^5 = 243 allocations
  const auto inst = random_instance(m, n, 101);
  EnergyEfficiencyObjective obj;

  std::vector<CoreId> alloc(m, 0);
  double best = -1.0;
  std::vector<CoreId> best_alloc;
  for (;;) {
    const double v = evaluate_allocation(inst.s, inst.p, obj, alloc);
    if (v > best) {
      best = v;
      best_alloc = alloc;
    }
    std::size_t i = 0;
    while (i < m && alloc[i] == static_cast<CoreId>(n - 1)) alloc[i++] = 0;
    if (i == m) break;
    ++alloc[i];
  }

  const auto gray = exhaustive_optimum(inst.s, inst.p, obj);
  EXPECT_NEAR(gray.objective, best, 1e-9 * best);
  EXPECT_NEAR(evaluate_allocation(inst.s, inst.p, obj, gray.allocation),
              best, 1e-9 * best)
      << "reported allocation must actually achieve the optimum";
}

TEST(SaOptimizer, DriftResyncKeepsObjectiveConsistent) {
  // A long anneal crosses the periodic resync boundary; the final reported
  // objective must still match a reference evaluation of the returned
  // allocation, and the resync count is surfaced in the result.
  const auto inst = random_instance(16, 6, 111);
  EnergyEfficiencyObjective obj;
  SaConfig cfg;
  cfg.seed = 5;
  cfg.max_iterations = 60000;
  const auto r = SaOptimizer(cfg).optimize(inst.s, inst.p, obj, inst.initial);
  EXPECT_GE(r.resyncs, 0);
  EXPECT_NEAR(evaluate_allocation(inst.s, inst.p, obj, r.allocation),
              r.objective, 1e-9 * std::max(1.0, r.objective));
}

/// A long anneal pinned bit for bit: 16 threads, alternately CPU-bound and
/// duty-cycled, on two core types of four identical cores each, under the
/// global objective for 30000 iterations.
struct LongAnneal {
  std::uint64_t seed;
  bool fixed_point_acceptance;
  double accept_decay;
  std::vector<CoreId> allocation;
  std::uint64_t objective_bits;
  int improved;
  int accepted_worse;
  int resyncs;
};

SaResult run_long_anneal(const LongAnneal& c) {
  constexpr std::size_t m = 16, n = 8, per_type = 4;
  Rng rng(c.seed);
  // Columns repeat within a core type, as build_characterization() fills
  // them, so some moves leave the objective exactly unchanged.
  Matrix s(m, n), p(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; j += per_type) {
      const double gips = rng.uniform(0.1, 4.0);
      const double watts = rng.uniform(0.05, 3.0);
      for (std::size_t k = j; k < j + per_type; ++k) {
        s.at(i, k) = gips;
        p.at(i, k) = watts;
      }
    }
  }
  std::vector<double> demand(m);
  std::vector<CoreId> initial(m);
  for (std::size_t i = 0; i < m; ++i) {
    demand[i] = i % 2 == 0 ? -1.0 : rng.uniform(0.05, 1.0);
    initial[i] = static_cast<CoreId>(i % n);
  }
  const GlobalEfficiencyObjective obj(
      {0.08, 0.08, 0.08, 0.08, 0.02, 0.02, 0.02, 0.02});
  SaConfig cfg;
  cfg.seed = c.seed;
  cfg.max_iterations = 30000;
  cfg.accept_decay = c.accept_decay;
  cfg.fixed_point_acceptance = c.fixed_point_acceptance;
  return SaOptimizer(cfg).optimize(s, p, obj, initial, nullptr, &demand);
}

TEST(SaOptimizer, LongAnnealTrajectoriesArePinned) {
  // At the default decay the temperature leaves the normal range after
  // ~14k iterations and sticks at the smallest subnormal; at decay 0.3 it
  // reaches +0 after ~620. The diff == 0 moves past that point are taken
  // (0 / subnormal == 0) or refused (0 / +0 is NaN) by IEEE rules alone,
  // so flushing subnormals, clamping the temperature or any other inexact
  // change to its schedule moves the trajectory. At decay -0.3 it ends up
  // alternating between -0 and +0, which an == test would take for a
  // fixed point. Expected values were recorded with the temperature
  // multiplied on every iteration.
  const std::vector<LongAnneal> cases = {
      {201, true, 0.95, {4, 5, 3, 5, 0, 3, 5, 3, 6, 5, 7, 3, 3, 3, 5, 5},
       0x400b5554af3bf762ULL, 55, 61, 0},
      {202, false, 0.95, {7, 4, 4, 6, 4, 0, 4, 4, 4, 3, 2, 4, 4, 4, 4, 4},
       0x4012251f25499f47ULL, 92, 248, 0},
      {203, true, 0.3, {7, 0, 1, 7, 3, 7, 7, 7, 7, 4, 7, 4, 7, 7, 2, 7},
       0x4013f2d811b047ccULL, 56, 3, 0},
      {204, false, 0.3, {5, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3, 6, 3, 0, 3},
       0x400d345eafcf31b1ULL, 118, 2, 0},
      {205, true, -0.3, {7, 4, 0, 6, 5, 5, 5, 7, 7, 4, 6, 7, 5, 4, 5, 2},
       0x4002ec69f9e8ba06ULL, 2336, 1860, 1},
  };
  for (const LongAnneal& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << c.seed << " decay " << c.accept_decay
                 << (c.fixed_point_acceptance ? " fixed-point" : " float"));
    const SaResult r = run_long_anneal(c);
    EXPECT_EQ(r.allocation, c.allocation);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), c.objective_bits);
    EXPECT_EQ(r.improved, c.improved);
    EXPECT_EQ(r.accepted_worse, c.accepted_worse);
    EXPECT_EQ(r.resyncs, c.resyncs);
  }
}

TEST(SaOptimizer, HostTimeRecorded) {
  const auto inst = random_instance(8, 4, 99);
  EnergyEfficiencyObjective obj;
  const auto r = SaOptimizer().optimize(inst.s, inst.p, obj, inst.initial);
  EXPECT_GT(r.host_ns, 0);
  EXPECT_GT(r.iterations, 0);
}

}  // namespace
}  // namespace sb::core
