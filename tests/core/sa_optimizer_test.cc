#include "core/sa_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <bitset>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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
  // The core -> physical core map must name one core per problem core.
  const std::vector<CoreId> one_core = {3};
  EXPECT_THROW(opt.optimize(Matrix(2, 2, 1.0), Matrix(2, 2, 1.0), obj, {0, 1},
                            nullptr, nullptr, &one_core),
               std::invalid_argument);
  // Every core's column must be a column of S/P; with a column map the
  // problem has one core per entry, so the physical-core map and the
  // initial cores are sized by the map, not by S's columns.
  const std::vector<std::size_t> past_end = {0, 2, 1};
  EXPECT_THROW(opt.optimize(Matrix(2, 2, 1.0), Matrix(2, 2, 1.0), obj, {0, 1},
                            nullptr, nullptr, nullptr, &past_end),
               std::invalid_argument);
  const std::vector<std::size_t> three_cores = {0, 1, 1};
  const std::vector<CoreId> two_cores = {4, 5};
  EXPECT_THROW(opt.optimize(Matrix(2, 2, 1.0), Matrix(2, 2, 1.0), obj, {0, 1},
                            nullptr, nullptr, &two_cores, &three_cores),
               std::invalid_argument);
  EXPECT_THROW(opt.optimize(Matrix(2, 2, 1.0), Matrix(2, 2, 1.0), obj, {0, 3},
                            nullptr, nullptr, nullptr, &three_cores),
               std::invalid_argument);
  EXPECT_NO_THROW(opt.optimize(Matrix(2, 2, 1.0), Matrix(2, 2, 1.0), obj,
                               {0, 2}, nullptr, nullptr, nullptr,
                               &three_cores));
  // Affinity masks hold kMaxCores bits, so a map naming more cores cannot
  // be combined with them; without masks the same problem anneals.
  const std::vector<std::size_t> too_many(
      static_cast<std::size_t>(kMaxCores) + 1, 0);
  std::vector<std::bitset<kMaxCores>> two_masks(2);
  two_masks[0].set();
  two_masks[1].set();
  SaConfig short_run;
  short_run.max_iterations = 100;
  SaOptimizer wide(short_run);
  EXPECT_THROW(wide.optimize(Matrix(2, 1, 1.0), Matrix(2, 1, 1.0), obj,
                             {0, kMaxCores}, &two_masks, nullptr, nullptr,
                             &too_many),
               std::invalid_argument);
  EXPECT_NO_THROW(wide.optimize(Matrix(2, 1, 1.0), Matrix(2, 1, 1.0), obj,
                                {0, kMaxCores}, nullptr, nullptr, nullptr,
                                &too_many));
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
  // A user-defined objective (annealed by the generic kernel) computing the
  // same per-core term as the built-in EE must reproduce the devirtualized
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
  const auto a = SaOptimizer(cfg).optimize(inst.s, inst.p, builtin,
                                           inst.initial);
  const auto b = SaOptimizer(cfg).optimize(inst.s, inst.p, custom,
                                           inst.initial);
  EXPECT_EQ(b.allocation, a.allocation);
  EXPECT_DOUBLE_EQ(b.objective, a.objective);
  EXPECT_EQ(b.accepted_worse, a.accepted_worse);
  EXPECT_EQ(b.improved, a.improved);
}

/// Scores core c as weight(c) · gips through the generic kernel.
class CoreWeightedObjective final : public BalanceObjective {
 public:
  explicit CoreWeightedObjective(std::vector<double> weights)
      : weights_(std::move(weights)) {}
  double core_term(const CoreSums& s, CoreId core) const override {
    return weights_.at(static_cast<std::size_t>(core)) * s.gips;
  }
  std::string name() const override { return "core_weighted"; }

 private:
  std::vector<double> weights_;
};

TEST(SaOptimizer, CoreMapHandsObjectivesPhysicalCoreIds) {
  // A sub-problem whose columns are physical cores {5, 2, 7}: annealing it
  // with a whole-platform objective and that map must replay, bit for bit,
  // the anneal of the same objective re-indexed by column — for a built-in
  // kernel and for the generic one.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto inst = random_instance(9, 3, 121);
  const std::vector<CoreId> cores = {5, 2, 7};
  const std::vector<double> platform_w = {1, 1, 3, 1, 1, 0.5, 1, 2};
  const std::vector<double> column_w = {0.5, 3, 2};
  SaConfig cfg;
  cfg.seed = 17;
  cfg.max_iterations = 3000;
  const auto expect_same = [&](const BalanceObjective& platform_obj,
                               const BalanceObjective& column_obj) {
    const auto a = SaOptimizer(cfg).optimize(inst.s, inst.p, platform_obj,
                                             inst.initial, nullptr, nullptr,
                                             &cores);
    const auto b =
        SaOptimizer(cfg).optimize(inst.s, inst.p, column_obj, inst.initial);
    EXPECT_EQ(a.allocation, b.allocation) << platform_obj.name();
    EXPECT_EQ(bits(a.objective), bits(b.objective)) << platform_obj.name();
    EXPECT_EQ(bits(a.initial_objective), bits(b.initial_objective));
    EXPECT_EQ(a.improved, b.improved);
    EXPECT_EQ(a.accepted_worse, b.accepted_worse);
  };
  expect_same(EnergyEfficiencyObjective(platform_w),
              EnergyEfficiencyObjective(column_w));
  // CoreWeightedObjective reads its weights with at(): an unmapped column
  // index would still be in range here, but would score differently.
  expect_same(CoreWeightedObjective(platform_w),
              CoreWeightedObjective(column_w));
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

/// A long-anneal problem on two core types of four identical cores each,
/// under the global objective. Columns repeat within a core type, as
/// build_characterization() fills them, so some moves leave the objective
/// exactly unchanged.
struct LongProblem {
  Matrix s, p;
  std::vector<double> demand;  // empty: every thread CPU-bound
  std::vector<CoreId> initial;
  int iterations;
};

constexpr std::size_t kLongCores = 8, kLongPerType = 4;

GlobalEfficiencyObjective long_objective() {
  return GlobalEfficiencyObjective(
      {0.08, 0.08, 0.08, 0.08, 0.02, 0.02, 0.02, 0.02});
}

/// 16 threads, alternately CPU-bound and duty-cycled, with per-type GIPS
/// and watts drawn from `seed`; 30000 iterations.
LongProblem mixed_rows(std::uint64_t seed) {
  constexpr std::size_t m = 16;
  Rng rng(seed);
  LongProblem pr{Matrix(m, kLongCores), Matrix(m, kLongCores), {}, {}, 30000};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < kLongCores; j += kLongPerType) {
      const double gips = rng.uniform(0.1, 4.0);
      const double watts = rng.uniform(0.05, 3.0);
      for (std::size_t k = j; k < j + kLongPerType; ++k) {
        pr.s.at(i, k) = gips;
        pr.p.at(i, k) = watts;
      }
    }
  }
  pr.demand.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    pr.demand[i] = i % 2 == 0 ? -1.0 : rng.uniform(0.05, 1.0);
    pr.initial.push_back(static_cast<CoreId>(i % kLongCores));
  }
  return pr;
}

/// 48 CPU-bound threads with identical rows; 60000 iterations. While no
/// core is empty, J is the same sum of per-core GIPS over the same sum of
/// per-core watts however the threads spread, so almost every move changes
/// J by a rounding error at most and is taken: the anneal accepts more
/// than 4096 moves and crosses the drift resync.
LongProblem identical_rows() {
  constexpr std::size_t m = 48;
  LongProblem pr{Matrix(m, kLongCores), Matrix(m, kLongCores), {}, {}, 60000};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < kLongCores; ++j) {
      const bool big = j < kLongPerType;
      pr.s.at(i, j) = big ? 2.1 : 0.7;
      pr.p.at(i, j) = big ? 1.3 : 0.3;
    }
    pr.initial.push_back(static_cast<CoreId>(i % kLongCores));
  }
  return pr;
}

SaResult anneal(const LongProblem& pr, std::uint64_t seed) {
  SaConfig cfg;
  cfg.seed = seed;
  cfg.max_iterations = pr.iterations;
  return SaOptimizer(cfg).optimize(pr.s, pr.p, long_objective(), pr.initial,
                                   nullptr,
                                   pr.demand.empty() ? nullptr : &pr.demand);
}

TEST(SaOptimizer, DriftResyncKeepsObjectiveConsistent) {
  // Identical rows keep the anneal taking near-zero-ΔJ moves, so it crosses
  // the periodic resync boundary; the final reported objective must still
  // match a reference evaluation of the returned allocation, and the
  // resync count is surfaced in the result.
  const LongProblem pr = identical_rows();
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const SaResult r = anneal(pr, seed);
    EXPECT_GE(r.resyncs, 1) << "seed " << seed;
    EXPECT_NEAR(evaluate_allocation(pr.s, pr.p, long_objective(),
                                    r.allocation),
                r.objective, 1e-9 * std::max(1.0, r.objective))
        << "seed " << seed;
  }
}

/// A long anneal pinned bit for bit.
struct LongAnneal {
  std::uint64_t seed;
  bool identical;  // identical_rows(), else mixed_rows(seed)
  std::vector<CoreId> allocation;
  std::uint64_t objective_bits;
  int improved;
  int accepted_worse;
  int resyncs;
};

TEST(SaOptimizer, LongAnnealTrajectoriesArePinned) {
  // The temperature leaves the normal range after ~14k iterations and
  // sticks at the smallest subnormal. The diff == 0 moves past that point
  // are taken (0 / subnormal == 0) by IEEE rules alone, so flushing
  // subnormals, clamping the temperature or any other inexact change to
  // its schedule moves the trajectory; the identical-rows case also
  // crosses two drift resyncs. Expected values were recorded with the
  // temperature multiplied on every iteration; the identical-rows case was
  // recorded before the schedule became constants.
  const std::vector<LongAnneal> cases = {
      {201, false, {4, 5, 3, 5, 0, 3, 5, 3, 6, 5, 7, 3, 3, 3, 5, 5},
       0x400b5554af3bf762ULL, 55, 61, 0},
      {1, true, {3, 3, 7, 3, 3, 6, 4, 4, 3, 5, 4, 5, 3, 4, 4, 7,
                 6, 6, 7, 7, 6, 4, 6, 3, 7, 6, 5, 5, 3, 3, 3, 6,
                 5, 7, 6, 4, 3, 5, 4, 4, 4, 6, 7, 5, 3, 6, 5, 3},
       0x3ffc9cf6a82cd993ULL, 194, 9007, 2},
  };
  for (const LongAnneal& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << c.seed
                 << (c.identical ? " identical rows" : " mixed rows"));
    const SaResult r =
        anneal(c.identical ? identical_rows() : mixed_rows(c.seed), c.seed);
    EXPECT_EQ(r.allocation, c.allocation);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), c.objective_bits);
    EXPECT_EQ(r.improved, c.improved);
    EXPECT_EQ(r.accepted_worse, c.accepted_worse);
    EXPECT_EQ(r.resyncs, c.resyncs);
  }
}

/// An anneal at scale: n cores in `types` equal groups whose columns
/// repeat, as build_characterization() fills them, and m threads striped
/// over the cores, alternately CPU-bound and duty-cycled when
/// `with_demand` is set.
struct ScaledProblem {
  Matrix s, p;
  std::vector<double> demand;  // empty: every thread CPU-bound
  std::vector<CoreId> initial;
};

ScaledProblem typed_problem(std::size_t n, std::size_t m, std::size_t types,
                            std::uint64_t seed, bool with_demand) {
  const std::size_t per_type = n / types;
  Rng rng(seed);
  ScaledProblem pr{Matrix(m, n), Matrix(m, n), {}, {}};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; j += per_type) {
      const double gips = rng.uniform(0.1, 4.0);
      const double watts = rng.uniform(0.05, 3.0);
      for (std::size_t k = j; k < j + per_type; ++k) {
        pr.s.at(i, k) = gips;
        pr.p.at(i, k) = watts;
      }
    }
    if (with_demand) {
      pr.demand.push_back(i % 2 == 0 ? -1.0 : rng.uniform(0.05, 1.0));
    }
    pr.initial.push_back(static_cast<CoreId>(i % n));
  }
  return pr;
}

GlobalEfficiencyObjective typed_objective() {
  std::vector<double> sleep_w;
  for (const double w : {0.09, 0.05, 0.03, 0.01}) {
    sleep_w.insert(sleep_w.end(), 8, w);
  }
  return GlobalEfficiencyObjective(sleep_w);
}

/// A pinned anneal: allocation, objective bits and move counts.
struct PinnedAnneal {
  std::vector<CoreId> allocation;
  std::uint64_t objective_bits;
  int improved;
  int accepted_worse;
  int resyncs;
};

void expect_pinned(const SaResult& r, const PinnedAnneal& want) {
  EXPECT_EQ(r.allocation, want.allocation);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), want.objective_bits);
  EXPECT_EQ(r.improved, want.improved);
  EXPECT_EQ(r.accepted_worse, want.accepted_worse);
  EXPECT_EQ(r.resyncs, want.resyncs);
}

TEST(SaOptimizer, ScaledAnnealsArePinned) {
  // Two anneals at scale, pinned bit for bit, one through each slot
  // reduction. 32 cores × 64 threads (n·m and m powers of two) under the
  // built-in global objective with a demand vector; its auto budget runs
  // past the point where `accept` stops changing. 24 × 40 (neither a power
  // of two) under a custom objective, so the generic kernel runs it.
  // Expected values were recorded before the proposal arithmetic, the slot
  // reduction and the occupancy cells were rewritten.
  {
    SCOPED_TRACE("32 x 64, global objective, demand, auto budget");
    const ScaledProblem pr = typed_problem(32, 64, 4, 2024, true);
    SaConfig cfg;
    cfg.seed = 5;
    const SaResult r = SaOptimizer(cfg).optimize(
        pr.s, pr.p, typed_objective(), pr.initial, nullptr, &pr.demand);
    EXPECT_EQ(r.iterations, 24676);
    expect_pinned(r, {{8,  25, 14, 26, 14, 16, 8,  2,  5,  25, 20, 1,  4,
                       12, 14, 26, 3,  17, 5,  15, 7,  24, 14, 2,  14, 14,
                       17, 8,  14, 14, 23, 25, 14, 30, 2,  2,  2,  25, 8,
                       2,  8,  12, 30, 28, 6,  14, 17, 1,  30, 14, 14, 21,
                       17, 31, 17, 11, 2,  2,  17, 10, 9,  30, 10, 13},
                      0x4011968336b0889cULL, 168, 62, 0});
  }
  {
    SCOPED_TRACE("24 x 40, custom objective, auto budget");
    const ScaledProblem pr = typed_problem(24, 40, 3, 77, false);
    std::vector<double> weights;
    for (int c = 0; c < 24; ++c) weights.push_back(1.0 + 0.25 * (c / 8));
    SaConfig cfg;
    cfg.seed = 11;
    const SaResult r = SaOptimizer(cfg).optimize(
        pr.s, pr.p, CoreWeightedObjective(weights), pr.initial);
    EXPECT_EQ(r.iterations, 11620);
    expect_pinned(r, {{12, 20, 11, 23, 18, 2,  0,  17, 3, 23, 10, 6,  20, 22,
                       1,  19, 4,  3,  13, 11, 13, 0,  0, 23, 8,  19, 9,  15,
                       18, 18, 20, 18, 5,  17, 2,  15, 4, 11, 16, 0},
                      0x406479c94d581d2aULL, 62, 244, 0});
  }
}

/// A problem stored per core class, as build_characterization() stores
/// it: n cores of up to four types, each type split over two operating
/// points, one S/P column per (type, point) pair in order of its lowest
/// core, duty-cycled and CPU-bound threads, and per-thread affinity masks.
struct ClassProblem {
  Matrix s, p;                       // m × classes
  std::vector<std::size_t> columns;  // core -> column
  std::vector<double> demand;
  std::vector<std::bitset<kMaxCores>> affinity;
  std::vector<CoreId> initial;

  /// S or P with every core's column copied out: m × n.
  Matrix per_core(const Matrix& by_class) const {
    Matrix out(by_class.rows(), columns.size());
    for (std::size_t i = 0; i < by_class.rows(); ++i) {
      for (std::size_t j = 0; j < columns.size(); ++j) {
        out.at(i, j) = by_class.at(i, columns[j]);
      }
    }
    return out;
  }
};

ClassProblem class_problem(Rng& rng) {
  // A quarter of the shapes have 64 or more cores, where the radius
  // proposals of a settled anneal leave their core about half the time.
  const auto n = static_cast<std::size_t>(
      rng.uniform() < 0.25 ? rng.randi(64, 97) : rng.randi(2, 41));
  const auto m = static_cast<std::size_t>(rng.randi(1, 61));
  const std::int64_t types = rng.randi(1, 5);
  ClassProblem pr;
  std::vector<std::int64_t> keys;  // type·2 + point, one per column
  for (std::size_t j = 0; j < n; ++j) {
    const std::int64_t key = 2 * rng.randi(0, types) + rng.randi(0, 2);
    const auto it = std::find(keys.begin(), keys.end(), key);
    pr.columns.push_back(static_cast<std::size_t>(it - keys.begin()));
    if (it == keys.end()) keys.push_back(key);
  }
  pr.s = Matrix(m, keys.size());
  pr.p = Matrix(m, keys.size());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      pr.s.at(i, k) = rng.uniform(0.1, 4.0);
      pr.p.at(i, k) = rng.uniform(0.05, 3.0);
    }
    pr.demand.push_back(rng.uniform() < 0.5 ? -1.0 : rng.uniform(0.05, 2.0));
    pr.initial.push_back(
        static_cast<CoreId>(rng.randi(0, static_cast<std::int64_t>(n))));
    std::bitset<kMaxCores> mask;
    mask.set(static_cast<std::size_t>(pr.initial.back()));
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.7) mask.set(j);
    }
    pr.affinity.push_back(mask);
  }
  return pr;
}

void expect_same_result(const SaResult& a, const SaResult& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(a.allocation, b.allocation);
  EXPECT_EQ(bits(a.objective), bits(b.objective));
  EXPECT_EQ(bits(a.initial_objective), bits(b.initial_objective));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.improved, b.improved);
  EXPECT_EQ(a.accepted_worse, b.accepted_worse);
  EXPECT_EQ(a.resyncs, b.resyncs);
}

TEST(SaOptimizer, ClassMatricesMatchTheirPerCoreExpansion) {
  // Per-class S/P read through the core -> column map must anneal exactly
  // as the same matrices expanded per core: both built-in kernels and the
  // generic one, with demand and affinity, on random shapes and budgets.
  Rng rng(2828);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const ClassProblem pr = class_problem(rng);
    const Matrix s = pr.per_core(pr.s);
    const Matrix p = pr.per_core(pr.p);
    std::vector<double> weights, sleep_w;
    for (std::size_t j = 0; j < pr.columns.size(); ++j) {
      weights.push_back(rng.uniform(0.5, 2.0));
      sleep_w.push_back(rng.uniform(0.0, 0.2));
    }
    SaConfig cfg;
    cfg.seed = rng.next_u64();
    cfg.max_iterations =
        trial % 3 == 0 ? 0 : static_cast<int>(rng.randi(100, 4000));
    const EnergyEfficiencyObjective eq11(weights);
    const GlobalEfficiencyObjective global(sleep_w);
    const CoreWeightedObjective custom(weights);
    for (const BalanceObjective* obj :
         {static_cast<const BalanceObjective*>(&eq11),
          static_cast<const BalanceObjective*>(&global),
          static_cast<const BalanceObjective*>(&custom)}) {
      SCOPED_TRACE(obj->name());
      const SaResult by_class = SaOptimizer(cfg).optimize(
          pr.s, pr.p, *obj, pr.initial, &pr.affinity, &pr.demand, nullptr,
          &pr.columns);
      const SaResult by_core = SaOptimizer(cfg).optimize(
          s, p, *obj, pr.initial, &pr.affinity, &pr.demand);
      expect_same_result(by_class, by_core);
    }
  }
}

TEST(SaOptimizer, ClassMatricesMatchAcrossDriftResyncs) {
  // identical_rows() repeats each core type's values in every column of
  // the type, so per class it is two columns. Its anneal crosses drift
  // resyncs, which rebuild the state through the same map.
  const LongProblem pr = identical_rows();
  const std::vector<std::size_t> columns = {0, 0, 0, 0, 1, 1, 1, 1};
  Matrix s(pr.s.rows(), 2), p(pr.p.rows(), 2);
  for (std::size_t i = 0; i < pr.s.rows(); ++i) {
    for (std::size_t j = 0; j < kLongCores; ++j) {
      s.at(i, columns[j]) = pr.s.at(i, j);
      p.at(i, columns[j]) = pr.p.at(i, j);
    }
  }
  SaConfig cfg;
  cfg.seed = 2;
  cfg.max_iterations = pr.iterations;
  const SaResult by_class =
      SaOptimizer(cfg).optimize(s, p, long_objective(), pr.initial, nullptr,
                                nullptr, nullptr, &columns);
  const SaResult by_core = anneal(pr, 2);
  EXPECT_GE(by_core.resyncs, 1);
  expect_same_result(by_class, by_core);
}

TEST(SaOptimizer, ManycoreAnnealIsPinned) {
  // 128 cores × 256 threads in four classes of 32 cores, duty-cycled and
  // CPU-bound threads, the global objective and the auto budget: the
  // manycore_fig7 shape. The expected values were recorded from the
  // library before the class map, with the per-core expansion; per class
  // through the map it must anneal the same. The allocation is pinned as
  // an FNV-1a digest of its 256 core ids.
  constexpr std::size_t n = 128, m = 256, k = 4;
  Rng rng(1207);
  Matrix s(m, k), p(m, k);
  std::vector<double> demand;
  std::vector<CoreId> initial;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < k; ++c) {
      s.at(i, c) = rng.uniform(0.1, 4.0);
      p.at(i, c) = rng.uniform(0.05, 3.0);
    }
    demand.push_back(i % 3 == 0 ? -1.0 : rng.uniform(0.05, 1.5));
    initial.push_back(static_cast<CoreId>((i * 37) % n));
  }
  ClassProblem pr;
  std::vector<double> sleep_w;
  for (std::size_t j = 0; j < n; ++j) {
    pr.columns.push_back(j / (n / k));
    sleep_w.push_back(0.01 + 0.02 * static_cast<double>(pr.columns.back()));
  }
  const GlobalEfficiencyObjective obj(sleep_w);
  SaConfig cfg;
  cfg.seed = 31;
  const auto digest = [](const std::vector<CoreId>& allocation) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const CoreId c : allocation) {
      h ^= static_cast<std::uint64_t>(c);
      h *= 1099511628211ULL;
    }
    return h;
  };
  const SaResult by_core = SaOptimizer(cfg).optimize(
      pr.per_core(s), pr.per_core(p), obj, initial, nullptr, &demand);
  const SaResult by_class = SaOptimizer(cfg).optimize(
      s, p, obj, initial, nullptr, &demand, nullptr, &pr.columns);
  for (const SaResult* r : {&by_core, &by_class}) {
    EXPECT_EQ(r->iterations, 60000);
    EXPECT_EQ(digest(r->allocation), 0xd00a8a58a91b66a0ULL);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r->objective),
              0x4000f281c28bd660ULL);  // 2.1184115599560727
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r->initial_objective),
              0x3ff2635fbb25a1b5ULL);
    EXPECT_EQ(r->improved, 262);
    EXPECT_EQ(r->accepted_worse, 33);
    EXPECT_EQ(r->resyncs, 0);
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
