// Unit and property tests for the sharded hierarchical balancer
// (core/shard.h): the --shards= grammar, the partition function's
// true-partition invariants under fuzzed platforms, input validation at
// every K, and the ShardedBalancer determinism contract — worker-count
// independence, the K=1 bit-identity with the plain optimizer, per-class
// S/P matching their per-core expansion at K=1 and K=4, and a pinned K=4
// result.
#include "core/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <bitset>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "common/rng.h"
#include "core/objective.h"
#include "core/sa_optimizer.h"

namespace sb::core {
namespace {

TEST(ShardingConfig, ParsesGrammar) {
  const auto k = ShardingConfig::parse("8");
  EXPECT_EQ(k.shards, 8);
  EXPECT_EQ(k.jobs, 0);
  EXPECT_EQ(k.exchange_moves, -1);  // auto

  const auto kj = ShardingConfig::parse("8:4");
  EXPECT_EQ(kj.shards, 8);
  EXPECT_EQ(kj.jobs, 4);
  EXPECT_EQ(kj.exchange_moves, -1);

  const auto kjm = ShardingConfig::parse("8:4:16");
  EXPECT_EQ(kjm.shards, 8);
  EXPECT_EQ(kjm.jobs, 4);
  EXPECT_EQ(kjm.exchange_moves, 16);

  // "0" parses (one shard, like "1"), and moves=0 disables the exchange.
  EXPECT_EQ(ShardingConfig::parse("0").shards, 0);
  EXPECT_EQ(ShardingConfig::parse("4:0:0").exchange_moves, 0);
}

TEST(ShardingConfig, ToStringRoundTrips) {
  for (const std::string spec : {"8", "8:4", "8:4:16", "1", "4:0:0", "2:1"}) {
    const auto cfg = ShardingConfig::parse(spec);
    const auto again = ShardingConfig::parse(cfg.canonical());
    EXPECT_EQ(again.shards, cfg.shards) << spec;
    EXPECT_EQ(again.jobs, cfg.jobs) << spec;
    EXPECT_EQ(again.exchange_moves, cfg.exchange_moves) << spec;
  }
  EXPECT_EQ(ShardingConfig::parse("8").canonical(), "8");
  EXPECT_EQ(ShardingConfig::parse("8:4:16").canonical(), "8:4:16");
}

TEST(ShardingConfig, ParseErrors) {
  for (const std::string bad :
       {"", ":", "8:", ":4", "8:4:16:2", "-1", "8:-2", "8:4:-2", "abc", "8x",
        "8:4x", " 8", "8 ", "2048",  // beyond kMaxCores
        "99999999999999999999"}) {
    EXPECT_THROW(ShardingConfig::parse(bad), std::invalid_argument)
        << "'" << bad << "'";
  }
}

arch::Platform two_type_platform(int big, int little) {
  arch::Platform p;
  if (big > 0) p.add_cores(arch::big_core(), big);
  if (little > 0) p.add_cores(arch::small_core(), little);
  p.validate();
  return p;
}

void expect_true_partition(const arch::Platform& platform, int shards) {
  const ShardPartition part = make_shard_partition(platform, shards);
  const int n = platform.num_cores();
  const int k = std::min(shards, n);
  ASSERT_EQ(part.num_shards(), k);
  ASSERT_EQ(part.shard_of.size(), static_cast<std::size_t>(n));

  std::set<CoreId> seen;
  for (int sidx = 0; sidx < part.num_shards(); ++sidx) {
    const auto& cores = part.cores[static_cast<std::size_t>(sidx)];
    // Non-empty (k <= n by construction) and strictly ascending.
    EXPECT_FALSE(cores.empty()) << "shard " << sidx << " empty, n=" << n
                                << " k=" << k;
    EXPECT_TRUE(std::is_sorted(cores.begin(), cores.end()));
    for (const CoreId c : cores) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, n);
      // Membership and the reverse map agree, and no core is in two shards.
      EXPECT_EQ(part.shard_of[static_cast<std::size_t>(c)], sidx);
      EXPECT_TRUE(seen.insert(c).second) << "core " << c << " in two shards";
    }
  }
  // Every core is in exactly one shard.
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

TEST(ShardPartition, IsTruePartitionUnderFuzzedConfigs) {
  Rng rng(7);
  for (int it = 0; it < 10'000; ++it) {
    arch::Platform platform;
    switch (rng.randi(0, 3)) {
      case 0:  // two-type big.LITTLE, possibly lopsided
        platform = two_type_platform(static_cast<int>(rng.randi(1, 17)),
                                     static_cast<int>(rng.randi(0, 33)));
        break;
      case 1:  // four-type scaled HMP
        platform = arch::Platform::scaled_heterogeneous(
            static_cast<int>(rng.randi(1, 9)));
        break;
      default:  // single-type
        platform = two_type_platform(static_cast<int>(rng.randi(1, 49)), 0);
        break;
    }
    // K from degenerate 1 up to past the core count (clamped).
    const int shards =
        static_cast<int>(rng.randi(1, platform.num_cores() + 6));
    expect_true_partition(platform, shards);
  }
}

TEST(ShardPartition, SingletonTypesSpreadAcrossShards) {
  // Four one-core types, four shards: the rotating remainder cursor must
  // put one core in each shard instead of piling all four onto shard 0.
  const auto platform = arch::Platform::scaled_heterogeneous(1);
  ASSERT_EQ(platform.num_cores(), 4);
  ASSERT_EQ(platform.num_types(), 4);
  const ShardPartition part = make_shard_partition(platform, 4);
  ASSERT_EQ(part.num_shards(), 4);
  for (const auto& cores : part.cores) {
    EXPECT_EQ(cores.size(), 1u);
  }
}

TEST(ShardPartition, ClampsAndThrows) {
  const auto platform = two_type_platform(2, 2);
  EXPECT_EQ(make_shard_partition(platform, 100).num_shards(), 4);
  EXPECT_EQ(make_shard_partition(platform, 1).num_shards(), 1);
  EXPECT_THROW(make_shard_partition(platform, 0), std::invalid_argument);
  EXPECT_THROW(make_shard_partition(platform, -3), std::invalid_argument);
}

/// A ShardedBalancer problem instance over a real platform: m threads on
/// the platform's n cores with value-random S/P and CPU-bound demand.
struct Instance {
  Matrix s, p;
  std::vector<CoreId> initial;
  std::vector<std::bitset<kMaxCores>> affinity;
  std::vector<double> demand;
};

/// The column map of per-core S/P: core j reads column j.
std::vector<std::size_t> per_core_columns(const Matrix& s) {
  std::vector<std::size_t> columns(s.cols());
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  return columns;
}

Instance random_instance(const arch::Platform& platform, std::size_t m,
                         std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(platform.num_cores());
  Instance inst{Matrix(m, n), Matrix(m, n), {}, {}, {}};
  std::bitset<kMaxCores> all;
  for (std::size_t j = 0; j < n; ++j) all.set(j);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      inst.s.at(i, j) = rng.uniform(0.1, 4.0);
      inst.p.at(i, j) = rng.uniform(0.05, 3.0);
    }
    inst.initial.push_back(
        static_cast<CoreId>(rng.randi(0, static_cast<std::int64_t>(n))));
    inst.affinity.push_back(all);
    inst.demand.push_back(-1.0);  // CPU-bound
  }
  return inst;
}

TEST(ShardedBalancer, SingleShardIsBitIdenticalToUnshardedOptimizer) {
  // The contract behind the --shards=1 golden equivalence: one shard means
  // the sub-problem IS the problem and shard 0's seed IS the pass seed, so
  // the merged result must replay the unsharded annealing trajectory
  // bit for bit — exact ==, not tolerance.
  const auto platform = arch::Platform::scaled_heterogeneous(1);
  const auto inst = random_instance(platform, 8, 42);
  EnergyEfficiencyObjective obj;
  SaConfig sa;
  sa.max_iterations = 2000;
  const std::uint64_t pass_seed = 0xfeedULL;

  ShardingConfig cfg;
  cfg.shards = 1;
  ShardedBalancer sharded(platform, cfg, sa.max_iterations);
  const SaResult a = sharded.balance(
      0, pass_seed, inst.s, inst.p, per_core_columns(inst.s), obj,
      inst.initial, inst.affinity, inst.demand, nullptr, 0);

  SaOptimizer ref(sa);
  ref.set_seed(pass_seed);
  const SaResult b = ref.optimize(inst.s, inst.p, obj, inst.initial,
                                  &inst.affinity, &inst.demand);

  EXPECT_EQ(a.allocation, b.allocation);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.initial_objective, b.initial_objective);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.accepted_worse, b.accepted_worse);
  EXPECT_EQ(a.improved, b.improved);
}

TEST(ShardedBalancer, ResultsIndependentOfWorkerCount) {
  // jobs=1 vs jobs=8 must produce the same numbers: every shard writes only
  // its own slot and seeds from (pass seed, shard index), never from
  // execution order.
  const auto platform = arch::Platform::scaled_heterogeneous(4);  // 16 cores
  const auto inst = random_instance(platform, 32, 7);
  EnergyEfficiencyObjective obj;
  const int sa_iterations = 4000;

  auto run = [&](int jobs) {
    ShardingConfig cfg;
    cfg.shards = 4;
    cfg.jobs = jobs;
    ShardedBalancer b(platform, cfg, sa_iterations);
    return b.balance(0, 0x1234ULL, inst.s, inst.p, per_core_columns(inst.s),
                     obj, inst.initial, inst.affinity, inst.demand, nullptr,
                     0);
  };
  const SaResult seq = run(1);
  const SaResult par = run(8);
  EXPECT_EQ(seq.allocation, par.allocation);
  EXPECT_EQ(seq.objective, par.objective);
  EXPECT_EQ(seq.initial_objective, par.initial_objective);
  EXPECT_EQ(seq.iterations, par.iterations);
}

TEST(ShardedBalancer, MergedObjectiveNeverWorseThanInitial) {
  // Per-shard SA only improves its local objective and the exchange phase
  // reverts non-improving moves, so the merged global J cannot regress.
  const auto platform = arch::Platform::scaled_heterogeneous(2);  // 8 cores
  EnergyEfficiencyObjective obj;
  const int sa_iterations = 2000;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto inst = random_instance(platform, 16, seed);
    ShardingConfig cfg;
    cfg.shards = 4;
    ShardedBalancer b(platform, cfg, sa_iterations);
    const SaResult r =
        b.balance(0, seed, inst.s, inst.p, per_core_columns(inst.s), obj,
                  inst.initial, inst.affinity, inst.demand, nullptr, 0);
    EXPECT_GE(r.objective, r.initial_objective - 1e-9) << "seed " << seed;
    ASSERT_EQ(r.allocation.size(), inst.initial.size());
    for (std::size_t i = 0; i < r.allocation.size(); ++i) {
      EXPECT_GE(r.allocation[i], 0);
      EXPECT_LT(r.allocation[i], platform.num_cores());
    }
    // Accounting is wired: every non-empty shard ran and was counted.
    EXPECT_GT(b.last_pass().shard_passes, 0);
    EXPECT_GT(b.last_pass().iterations_total, 0);
    EXPECT_GT(b.shard_cpu_ns_total(), 0u);
  }
}

TEST(ShardedBalancer, RespectsAffinityMasks) {
  // Pin every thread to its initial core: neither the shard anneals nor the
  // exchange phase may move anything.
  const auto platform = arch::Platform::scaled_heterogeneous(2);
  auto inst = random_instance(platform, 12, 99);
  for (std::size_t i = 0; i < inst.affinity.size(); ++i) {
    inst.affinity[i].reset();
    inst.affinity[i].set(static_cast<std::size_t>(inst.initial[i]));
  }
  ShardingConfig cfg;
  cfg.shards = 4;
  const int sa_iterations = 1000;
  EnergyEfficiencyObjective obj;
  ShardedBalancer b(platform, cfg, sa_iterations);
  const SaResult r =
      b.balance(0, 5, inst.s, inst.p, per_core_columns(inst.s), obj,
                inst.initial, inst.affinity, inst.demand, nullptr, 0);
  EXPECT_EQ(r.allocation, inst.initial);
  EXPECT_EQ(b.last_pass().exchange_moves, 0);
}

TEST(ShardedBalancer, RejectsShortPerThreadVectors) {
  // Every thread row needs a mask and a demand entry, S/P must span the
  // platform's cores and every initial core must be one of them. Malformed
  // input is refused up front at every K, not skipped or read past its end.
  // (RejectsAColumnMapThatDoesNotFit covers the map itself.)
  const auto platform = arch::Platform::scaled_heterogeneous(2);  // 8 cores
  const auto inst = random_instance(platform, 6, 3);
  EnergyEfficiencyObjective obj;
  const std::vector<std::bitset<kMaxCores>> one_mask(1, inst.affinity[0]);
  const std::vector<double> one_demand(1, -1.0);
  // S/P without the platform's last core, threads on core 0.
  Matrix narrow_s(6, 7), narrow_p(6, 7);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      narrow_s.at(i, j) = inst.s.at(i, j);
      narrow_p.at(i, j) = inst.p.at(i, j);
    }
  }
  const std::vector<CoreId> on_core0(6, 0);
  const std::vector<std::size_t> columns = per_core_columns(inst.s);
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "K = " << shards);
    ShardingConfig cfg;
    cfg.shards = shards;
    ShardedBalancer b(platform, cfg, 0);
    EXPECT_THROW(b.balance(0, 1, inst.s, inst.p, columns, obj, inst.initial,
                           one_mask, inst.demand, nullptr, 0),
                 std::invalid_argument);
    EXPECT_THROW(b.balance(0, 1, inst.s, inst.p, columns, obj, inst.initial,
                           inst.affinity, one_demand, nullptr, 0),
                 std::invalid_argument);
    for (const CoreId bad : {CoreId{-1}, CoreId{8}}) {
      std::vector<CoreId> initial = inst.initial;
      initial[0] = bad;
      EXPECT_THROW(b.balance(0, 1, inst.s, inst.p, columns, obj, initial,
                             inst.affinity, inst.demand, nullptr, 0),
                   std::invalid_argument)
          << "initial core " << bad;
    }
    EXPECT_THROW(b.balance(0, 1, narrow_s, narrow_p, per_core_columns(narrow_s),
                           obj, on_core0, inst.affinity, inst.demand, nullptr,
                           0),
                 std::invalid_argument);
    // The well-formed problem still balances.
    EXPECT_NO_THROW(b.balance(0, 1, inst.s, inst.p, columns, obj,
                              inst.initial, inst.affinity, inst.demand,
                              nullptr, 0));
  }
}

/// The K=4 golden problem: 48 threads on scaled:4's 16 cores, every third
/// CPU-bound and the rest duty-cycled, free to run anywhere.
Instance golden_instance(const arch::Platform& platform) {
  constexpr std::size_t kThreads = 48;
  Rng rng(2015);
  const auto n = static_cast<std::size_t>(platform.num_cores());
  Instance inst{Matrix(kThreads, n), Matrix(kThreads, n), {}, {}, {}};
  std::bitset<kMaxCores> all;
  for (std::size_t j = 0; j < n; ++j) all.set(j);
  for (std::size_t i = 0; i < kThreads; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      inst.s.at(i, j) = rng.uniform(0.1, 4.0);
      inst.p.at(i, j) = rng.uniform(0.05, 3.0);
    }
    inst.initial.push_back(
        static_cast<CoreId>(rng.randi(0, static_cast<std::int64_t>(n))));
    inst.affinity.push_back(all);
    inst.demand.push_back(i % 3 == 0 ? -1.0 : rng.uniform(0.05, 1.5));
  }
  return inst;
}

struct GoldenResult {
  std::vector<CoreId> allocation;
  std::uint64_t objective_bits;
  std::uint64_t initial_objective_bits;
  int iterations;
  int exchange_moves;
};

void expect_golden(const BalanceObjective& objective,
                   const GoldenResult& want) {
  const auto platform = arch::Platform::scaled_heterogeneous(4);
  const auto inst = golden_instance(platform);
  ShardingConfig cfg;
  cfg.shards = 4;
  cfg.jobs = 2;
  ShardedBalancer b(platform, cfg, 0);
  const SaResult r = b.balance(0, 0x5eedULL, inst.s, inst.p,
                               per_core_columns(inst.s), objective,
                               inst.initial, inst.affinity, inst.demand,
                               nullptr, 0);
  EXPECT_EQ(r.allocation, want.allocation);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), want.objective_bits)
      << r.objective;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.initial_objective),
            want.initial_objective_bits)
      << r.initial_objective;
  EXPECT_EQ(r.iterations, want.iterations);
  EXPECT_EQ(b.last_pass().exchange_moves, want.exchange_moves);
}

TEST(ShardedBalancer, FourShardResultsArePinned) {
  // Values recorded from the library before the balance path was unified:
  // the shard anneals, the merge and the exchange must keep every bit.
  const auto platform = arch::Platform::scaled_heterogeneous(4);
  std::vector<double> sleep_w;
  std::vector<double> weights;
  for (CoreId c = 0; c < platform.num_cores(); ++c) {
    sleep_w.push_back(0.02 + 0.01 * platform.type_of(c));
    weights.push_back(1.0 + 0.25 * (c % 3));
  }
  expect_golden(GlobalEfficiencyObjective(sleep_w),
                {{15, 0, 4,  2, 10, 1, 5,  4, 10, 4,  1,  4,  9, 8, 13, 15,
                  14, 8, 15, 15, 10, 3, 14, 15, 10, 2,  3,  9, 4, 13, 4, 4,
                  9,  7, 0,  9,  9,  0, 8,  11, 8,  14, 9,  6, 10, 12, 2, 15},
                 0x401066f29be7229bULL,  // 4.1005348548721043
                 0x3ff517d52e2f5439ULL,  // 1.3183185390564758
                 9316,
                 1});
  expect_golden(EnergyEfficiencyObjective(weights),
                {{15, 12, 4,  2,  10, 5,  5,  12, 10, 12, 1,  12, 5,  12, 5, 15,
                  14, 12, 15, 15, 10, 15, 10, 15, 10, 10, 3,  5,  12, 13, 12, 12,
                  5,  7,  0,  5,  5,  0,  8,  11, 12, 10, 9,  6,  10, 12, 10, 15},
                 0x406b4e35453a0030ULL,  // 218.4440027363612
                 0x40408b3ca484fce6ULL,  // 33.087788166938296
                 9316,
                 1});
}

/// A problem stored per core class: each core's class is its type and one
/// of two operating points, numbered in order of the class's lowest core
/// as build_characterization() numbers them, with duty-cycled and
/// CPU-bound threads and per-thread affinity masks. `per_core` holds the
/// same S/P with every core's column copied out.
struct ClassInstance {
  Instance by_class;
  std::vector<std::size_t> columns;  // core -> column of by_class.s/p
  Instance per_core;
};

ClassInstance class_instance(const arch::Platform& platform, std::size_t m,
                             Rng& rng) {
  const auto n = static_cast<std::size_t>(platform.num_cores());
  ClassInstance ci;
  std::vector<std::int64_t> keys;  // type·2 + point, one per column
  for (CoreId c = 0; c < platform.num_cores(); ++c) {
    const std::int64_t key = 2 * platform.type_of(c) + rng.randi(0, 2);
    const auto it = std::find(keys.begin(), keys.end(), key);
    ci.columns.push_back(static_cast<std::size_t>(it - keys.begin()));
    if (it == keys.end()) keys.push_back(key);
  }
  Instance& bc = ci.by_class;
  bc.s = Matrix(m, keys.size());
  bc.p = Matrix(m, keys.size());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      bc.s.at(i, k) = rng.uniform(0.1, 4.0);
      bc.p.at(i, k) = rng.uniform(0.05, 3.0);
    }
    bc.initial.push_back(
        static_cast<CoreId>(rng.randi(0, static_cast<std::int64_t>(n))));
    std::bitset<kMaxCores> mask;
    mask.set(static_cast<std::size_t>(bc.initial.back()));
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < 0.8) mask.set(j);
    }
    bc.affinity.push_back(mask);
    bc.demand.push_back(rng.uniform() < 0.4 ? -1.0 : rng.uniform(0.05, 1.5));
  }
  ci.per_core = bc;
  ci.per_core.s = Matrix(m, n);
  ci.per_core.p = Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ci.per_core.s.at(i, j) = bc.s.at(i, ci.columns[j]);
      ci.per_core.p.at(i, j) = bc.p.at(i, ci.columns[j]);
    }
  }
  return ci;
}

TEST(ShardedBalancer, ClassMatricesMatchTheirPerCoreExpansion) {
  // Per-class S/P with the core -> column map must balance exactly as the
  // same matrices expanded per core: at K = 1 (the annealer in place) and
  // at K = 4 (shard sub-problems, merge and exchange), for both built-in
  // objectives, on random class splits, demand vectors and masks.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    const auto platform = arch::Platform::scaled_heterogeneous(
        static_cast<int>(rng.randi(1, 6)));
    const auto m = static_cast<std::size_t>(rng.randi(4, 64));
    const ClassInstance ci = class_instance(platform, m, rng);
    std::vector<double> weights, sleep_w;
    for (CoreId c = 0; c < platform.num_cores(); ++c) {
      weights.push_back(rng.uniform(0.5, 2.0));
      sleep_w.push_back(0.02 + 0.01 * platform.type_of(c));
    }
    const EnergyEfficiencyObjective eq11(weights);
    const GlobalEfficiencyObjective global(sleep_w);
    const std::uint64_t seed = rng.next_u64();
    for (const int shards : {1, 4}) {
      for (const BalanceObjective* obj :
           {static_cast<const BalanceObjective*>(&eq11),
            static_cast<const BalanceObjective*>(&global)}) {
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ", K = " << shards << ", "
                     << obj->name());
        ShardingConfig cfg;
        cfg.shards = shards;
        cfg.jobs = 2;
        ShardedBalancer a(platform, cfg, 1500);
        ShardedBalancer b(platform, cfg, 1500);
        const Instance& bc = ci.by_class;
        const Instance& pc = ci.per_core;
        const SaResult by_class =
            a.balance(0, seed, bc.s, bc.p, ci.columns, *obj, bc.initial,
                      bc.affinity, bc.demand, nullptr, 0);
        const SaResult by_core =
            b.balance(0, seed, pc.s, pc.p, per_core_columns(pc.s), *obj,
                      pc.initial, pc.affinity, pc.demand, nullptr, 0);
        EXPECT_EQ(by_class.allocation, by_core.allocation);
        EXPECT_EQ(bits(by_class.objective), bits(by_core.objective));
        EXPECT_EQ(bits(by_class.initial_objective),
                  bits(by_core.initial_objective));
        EXPECT_EQ(by_class.iterations, by_core.iterations);
        EXPECT_EQ(by_class.improved, by_core.improved);
        EXPECT_EQ(by_class.accepted_worse, by_core.accepted_worse);
        EXPECT_EQ(by_class.resyncs, by_core.resyncs);
        EXPECT_EQ(a.last_pass().exchange_moves, b.last_pass().exchange_moves);
      }
    }
  }
}

TEST(ShardedBalancer, RejectsAColumnMapThatDoesNotFit) {
  // The map needs one entry per platform core, each naming a column of S/P.
  const auto platform = arch::Platform::scaled_heterogeneous(2);  // 8 cores
  Rng rng(8);
  const ClassInstance ci = class_instance(platform, 6, rng);
  const Instance& bc = ci.by_class;
  EnergyEfficiencyObjective obj;
  std::vector<std::size_t> short_map(ci.columns.begin(),
                                     ci.columns.end() - 1);
  std::vector<std::size_t> past_end = ci.columns;
  past_end[3] = bc.s.cols();
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "K = " << shards);
    ShardingConfig cfg;
    cfg.shards = shards;
    ShardedBalancer b(platform, cfg, 0);
    EXPECT_THROW(b.balance(0, 1, bc.s, bc.p, short_map, obj, bc.initial,
                           bc.affinity, bc.demand, nullptr, 0),
                 std::invalid_argument);
    EXPECT_THROW(b.balance(0, 1, bc.s, bc.p, past_end, obj, bc.initial,
                           bc.affinity, bc.demand, nullptr, 0),
                 std::invalid_argument);
    EXPECT_NO_THROW(b.balance(0, 1, bc.s, bc.p, ci.columns, obj, bc.initial,
                              bc.affinity, bc.demand, nullptr, 0));
  }
}

/// Sets SB_JOBS for one scope and restores the previous value after.
class ScopedSbJobs {
 public:
  explicit ScopedSbJobs(const char* value) {
    if (const char* old = std::getenv("SB_JOBS")) old_ = old;
    ::setenv("SB_JOBS", value, 1);
  }
  ~ScopedSbJobs() {
    if (old_.empty()) {
      ::unsetenv("SB_JOBS");
    } else {
      ::setenv("SB_JOBS", old_.c_str(), 1);
    }
  }
  ScopedSbJobs(const ScopedSbJobs&) = delete;
  ScopedSbJobs& operator=(const ScopedSbJobs&) = delete;

 private:
  std::string old_;
};

int count_of(const std::string& text, const std::string& needle) {
  int n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ShardedBalancer, MalformedSbJobsWarnsOncePerBalancer) {
  // The worker count is resolved when the balancer is built, not per pass:
  // a malformed SB_JOBS is reported once, however many epochs run.
  const ScopedSbJobs env("abc");
  const auto platform = arch::Platform::scaled_heterogeneous(2);
  const auto inst = random_instance(platform, 16, 11);
  EnergyEfficiencyObjective obj;
  const int sa_iterations = 400;
  ShardingConfig cfg;
  cfg.shards = 2;
  testing::internal::CaptureStderr();
  ShardedBalancer b(platform, cfg, sa_iterations);
  for (std::uint64_t pass = 0; pass < 5; ++pass) {
    b.balance(pass, pass, inst.s, inst.p, per_core_columns(inst.s), obj,
              inst.initial, inst.affinity, inst.demand, nullptr, 0);
  }
  EXPECT_EQ(count_of(testing::internal::GetCapturedStderr(), "SB_JOBS"), 1);
}

}  // namespace
}  // namespace sb::core
