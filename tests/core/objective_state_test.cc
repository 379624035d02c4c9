// Property tests for the incrementally maintained ObjectiveState: after any
// sequence of single-thread moves, the running total must match a fresh
// full recompute (rebuild) and the reference evaluate_allocation — for both
// built-in objectives, additive and fractional, with and without demand
// weighting. BalanceObjective::evaluate, the one-shot fold, must agree with
// both bit for bit.
#include "core/objective_state.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/objective.h"
#include "core/sa_optimizer.h"

namespace sb::core {
namespace {

struct Instance {
  Matrix s, p;
  std::vector<double> demand;
  std::vector<CoreId> alloc;
};

Instance random_instance(std::size_t m, std::size_t n, std::uint64_t seed,
                         bool with_demand) {
  Rng rng(seed);
  Instance inst{Matrix(m, n), Matrix(m, n), {}, {}};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      inst.s.at(i, j) = rng.uniform(0.1, 4.0);
      inst.p.at(i, j) = rng.uniform(0.05, 3.0);
    }
    inst.demand.push_back(with_demand && i % 3 != 0
                              ? rng.uniform(0.05, 1.5)
                              : -1.0);
    inst.alloc.push_back(
        static_cast<CoreId>(rng.randi(0, static_cast<std::int64_t>(n))));
  }
  return inst;
}

/// Runs `moves` random single-thread migrations through one incremental
/// state and checks, at every step, that the incremental total matches a
/// state rebuilt from scratch on the same allocation.
template <class Obj>
void check_incremental_matches_rebuild(const Obj& objective,
                                       std::uint64_t seed, bool with_demand) {
  const std::size_t m = 9, n = 4;
  const auto inst = random_instance(m, n, seed, with_demand);
  const std::vector<double>* demand = with_demand ? &inst.demand : nullptr;

  ObjectiveScratch scratch;
  ObjectiveState<Obj> state(scratch, inst.s, inst.p, objective, inst.alloc,
                            demand);
  std::vector<CoreId> alloc = inst.alloc;

  Rng rng(seed ^ 0xfeedULL);
  constexpr int kMoves = 200;
  for (int k = 0; k < kMoves; ++k) {
    const auto i = static_cast<std::size_t>(
        rng.randi(0, static_cast<std::int64_t>(m)));
    const auto to = static_cast<CoreId>(
        rng.randi(0, static_cast<std::int64_t>(n)));
    const CoreId from = alloc[i];
    if (to == from) continue;
    state.remove_thread(i, from);
    state.add_thread(i, to);
    state.refresh_cores(from, to);
    alloc[i] = to;

    // Reference 1: an independent state built fresh on this allocation.
    ObjectiveScratch fresh_scratch;
    ObjectiveState<Obj> fresh(fresh_scratch, inst.s, inst.p, objective, alloc,
                              demand);
    ASSERT_NEAR(state.total(), fresh.total(),
                1e-9 * std::max(1.0, std::abs(fresh.total())))
        << "objective " << objective.name() << " diverged after move " << k;
  }

  // Rebuild on the same scratch must reproduce the incremental total within
  // the documented drift bound (it is the resync anchor).
  const double incremental = state.total();
  state.rebuild(alloc);
  EXPECT_NEAR(state.total(), incremental,
              kObjectiveDriftBound * std::max(1.0, std::abs(state.total())));
}

TEST(ObjectiveState, EnergyEfficiencyIncrementalMatchesRebuild) {
  EnergyEfficiencyObjective obj;
  check_incremental_matches_rebuild(obj, 1, false);
  check_incremental_matches_rebuild(obj, 2, true);
}

TEST(ObjectiveState, FractionalGlobalEfficiencyIncrementalMatchesRebuild) {
  GlobalEfficiencyObjective obj(std::vector<double>{0.1, 0.2, 0.15, 0.05});
  check_incremental_matches_rebuild(obj, 7, false);
  check_incremental_matches_rebuild(obj, 8, true);
}

TEST(ObjectiveState, MatchesEvaluateAllocationReference) {
  // The state's total on a fixed allocation equals the public reference
  // entry point (which routes through the generic virtual instantiation).
  const auto inst = random_instance(7, 3, 11, false);
  EnergyEfficiencyObjective obj;
  ObjectiveScratch scratch;
  ObjectiveState<EnergyEfficiencyObjective> state(scratch, inst.s, inst.p,
                                                  obj, inst.alloc);
  EXPECT_DOUBLE_EQ(state.total(),
                   evaluate_allocation(inst.s, inst.p, obj, inst.alloc));
}

TEST(ObjectiveState, OccupancyMatchesDemandSemantics) {
  // demand < 0 → full share; demand >= 0 → clamp(d / s_ij, 0.02, 1).
  Matrix s = {{2.0, 0.5}, {4.0, 0.1}};
  Matrix p = {{1.0, 0.2}, {1.0, 0.3}};
  std::vector<double> demand = {-1.0, 1.0};
  EnergyEfficiencyObjective obj;
  ObjectiveScratch scratch;
  ObjectiveState<EnergyEfficiencyObjective> state(scratch, s, p, obj, {0, 0},
                                                  &demand);
  EXPECT_DOUBLE_EQ(state.occupancy(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(state.occupancy(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(state.occupancy(1, 0), 0.25);      // 1.0 / 4.0
  EXPECT_DOUBLE_EQ(state.occupancy(1, 1), 1.0);       // saturates
}

TEST(ObjectiveState, ScratchReuseAcrossProblemSizesIsClean) {
  // A scratch grown by a big instance must serve a smaller one with no
  // leftover contributions (assign() resets the active prefix).
  EnergyEfficiencyObjective obj;
  ObjectiveScratch scratch;
  const auto big = random_instance(12, 6, 21, true);
  {
    ObjectiveState<EnergyEfficiencyObjective> state(scratch, big.s, big.p,
                                                    obj, big.alloc,
                                                    &big.demand);
    EXPECT_GT(state.total(), 0.0);
  }
  const auto small = random_instance(3, 2, 22, false);
  ObjectiveState<EnergyEfficiencyObjective> state(scratch, small.s, small.p,
                                                  obj, small.alloc);
  EXPECT_DOUBLE_EQ(
      state.total(),
      evaluate_allocation(small.s, small.p, obj, small.alloc));
}

/// Records the per-core sums it is asked to score.
class SumsProbe final : public BalanceObjective {
 public:
  explicit SumsProbe(std::size_t n) : seen_(n) {}
  double core_term(const CoreSums& s, CoreId core) const override {
    seen_[static_cast<std::size_t>(core)] = s;
    return s.gips;
  }
  std::string name() const override { return "sums_probe"; }
  const CoreSums& seen(std::size_t j) const { return seen_[j]; }

 private:
  mutable std::vector<CoreSums> seen_;
};

TEST(ObjectiveState, CellsMatchTheEagerFormulaForEveryRowAndCore) {
  // Cell (i, j) holds u·s_ij, u·p_ij and u, with u = occupancy(d_i, s_ij)
  // (1 without demand). Moving thread i alone onto the empty core j makes
  // that core's sums equal to the cell bit for bit. Every (row, core) is
  // checked, half of them read through occupancy() before the move, half
  // after. Two instances of one shape share the scratch, so no cell of the
  // first may survive into the second.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr std::size_t m = 6, n = 4;
  ObjectiveScratch scratch;
  for (const bool with_demand : {false, true}) {
    for (const std::uint64_t seed : {31ULL, 32ULL}) {
      const auto inst = random_instance(m, n, seed, with_demand);
      const std::vector<double>* demand = with_demand ? &inst.demand : nullptr;
      SumsProbe probe(n);
      for (std::size_t j = 0; j < n; ++j) {
        const auto core = static_cast<CoreId>(j);
        const auto home = static_cast<CoreId>((j + 1) % n);
        ObjectiveState<SumsProbe> state(scratch, inst.s, inst.p, probe,
                                        std::vector<CoreId>(m, home), demand);
        for (std::size_t i = 0; i < m; ++i) {
          SCOPED_TRACE(::testing::Message() << "demand " << with_demand
                                            << " seed " << seed << " row "
                                            << i << " core " << j);
          const double u =
              demand ? occupancy(inst.demand[i], inst.s.at(i, j)) : 1.0;
          if (i % 2 == 0) {
            EXPECT_EQ(bits(state.occupancy(i, j)), bits(u));
          }
          state.remove_thread(i, home);
          state.add_thread(i, core);
          state.refresh_cores(home, core);
          const CoreSums& c = probe.seen(j);
          EXPECT_EQ(bits(c.gips), bits(u * inst.s.at(i, j)));
          EXPECT_EQ(bits(c.watts), bits(u * inst.p.at(i, j)));
          EXPECT_EQ(bits(c.load), bits(u));
          EXPECT_EQ(c.nthreads, 1);
          if (i % 2 == 1) {
            EXPECT_EQ(bits(state.occupancy(i, j)), bits(u));
          }
          state.remove_thread(i, core);
          state.add_thread(i, home);
          state.refresh_cores(core, home);
        }
      }
    }
  }
}

/// Per-core sums of the instance's allocation, one thread at a time.
std::vector<CoreSums> sums_of(const Instance& inst, bool with_demand) {
  std::vector<CoreSums> sums(inst.s.cols());
  for (std::size_t i = 0; i < inst.alloc.size(); ++i) {
    const auto j = static_cast<std::size_t>(inst.alloc[i]);
    const double u =
        with_demand ? occupancy(inst.demand[i], inst.s.at(i, j)) : 1.0;
    sums[j].add(u, inst.s.at(i, j), inst.p.at(i, j));
  }
  return sums;
}

template <class Obj>
void expect_evaluate_matches(const Obj& objective) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const bool with_demand : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto inst = random_instance(9, 4, seed, with_demand);
      const double j = objective.evaluate(sums_of(inst, with_demand));
      ObjectiveScratch scratch;
      const ObjectiveState<Obj> state(scratch, inst.s, inst.p, objective,
                                      inst.alloc,
                                      with_demand ? &inst.demand : nullptr);
      EXPECT_EQ(bits(j), bits(state.total()))
          << objective.name() << " seed " << seed << " demand "
          << with_demand;
      if (!with_demand) {
        EXPECT_EQ(bits(j), bits(evaluate_allocation(inst.s, inst.p, objective,
                                                    inst.alloc)))
            << objective.name() << " seed " << seed;
      }
    }
  }
}

/// Custom objective with per-core weights, run through the generic
/// virtual-dispatch instantiation.
class WeightedThroughputObjective final : public BalanceObjective {
 public:
  double core_term(const CoreSums& s, CoreId core) const override {
    return static_cast<double>(core + 1) * s.gips / (1.0 + s.watts);
  }
  std::string name() const override { return "weighted_throughput"; }
};

TEST(BalanceObjective, EvaluateMatchesObjectiveStateBitForBit) {
  expect_evaluate_matches(EnergyEfficiencyObjective());
  expect_evaluate_matches(
      EnergyEfficiencyObjective(std::vector<double>{1.0, 1.5, 0.5, 2.0}));
  expect_evaluate_matches(
      GlobalEfficiencyObjective(std::vector<double>{0.1, 0.2, 0.15, 0.05}));
  expect_evaluate_matches<BalanceObjective>(WeightedThroughputObjective());
}

}  // namespace
}  // namespace sb::core
