// Sharded hierarchical balancing: sublinear per-epoch cost at 1024+ cores.
//
// The centralized BALANCE phase anneals one m×n problem per epoch; at
// 128c/256t BENCH_epoch's optimize phase is 1.8 ms, 3% of a 60 ms epoch,
// and it grows with the platform. This layer splits the platform into K
// cluster/NUMA-style shards and runs K independent cluster-local SA passes
// *in parallel* (on the same work-stealing fork-join primitive the
// ExperimentRunner pool uses), then a cheap sequential global exchange
// phase that trades the worst-matched threads between shards using the
// already-adapted Eq. 8 forecasts.
//
// Cost model: the global iteration budget (SmartBalanceConfig::sa_iterations,
// or the Fig. 8a auto rule) is split evenly across shards, and each shard's moves
// touch only its own n/K columns — so total annealing work stays roughly
// constant while wall-clock drops with parallelism and per-core cost falls
// as 1/K. The exchange phase is O(m·K·q + E·(m+n)), negligible next to SA.
//
// Determinism contract (same as every prior layer):
//  - shard partitioning is a pure function of (platform, K);
//  - one shard (K = 0 or 1, or a one-core platform) anneals the caller's
//    own problem with the policy's per-pass seed: no sub-problem, no shard
//    accounting, and the optimizer records the sa.* metrics itself;
//  - with K > 1, shard k's anneal seeds from base_seed ^ (k · golden-ratio),
//    where base_seed is the policy's per-pass seed, reads its threads' rows
//    of the per-class S/P through its cores' columns, and scores its cores
//    with the policy's own objective through the shard's local → physical
//    core map, so per-core weights see physical core ids and no objective
//    is copied;
//  - every shard writes only its own result slot and observability is
//    emitted after the join in shard order, so results are independent of
//    worker count and completion order (`--jobs=1/8` byte-identical).
#pragma once

#include <bitset>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "common/matrix.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/objective.h"
#include "core/sa_optimizer.h"

namespace sb::obs {
class Sink;
}  // namespace sb::obs

namespace sb::core {

/// Sharded-balancing knobs (SmartBalanceConfig::Sharding). The default, one
/// shard, anneals the whole platform as a single problem.
struct ShardingConfig {
  /// Number of shards; 0 and 1 both mean one shard. Clamped to the
  /// platform's core count.
  int shards = 0;
  /// Worker threads for the intra-epoch shard passes; 0 = auto
  /// (min(shards, SB_JOBS / hardware concurrency)).
  int jobs = 0;
  /// Max threads traded by the global exchange phase per epoch; -1 = auto
  /// (max(1, min(m/16, 4·shards))), 0 disables the exchange phase.
  int exchange_moves = -1;

  /// Parses the sbsim `--shards=` grammar: `K[:jobs[:moves]]` (fields per
  /// common/spec.h), e.g. "8", "8:4", "8:4:16". Throws
  /// std::invalid_argument on anything malformed.
  static ShardingConfig parse(const std::string& text);

  /// The spec that parse() reads back to this config, bit for bit.
  std::string canonical() const;
};

/// A partition of the platform's cores into shards: every core is in
/// exactly one shard, every shard is non-empty (when shards <= num_cores).
struct ShardPartition {
  /// shard -> physical core ids, ascending.
  std::vector<std::vector<CoreId>> cores;
  /// core id -> owning shard index.
  std::vector<int> shard_of;

  int num_shards() const { return static_cast<int>(cores.size()); }
};

/// Pure function of (platform, shards): splits each core type's ascending
/// core list into contiguous chunks distributed over the shards, with the
/// remainder cursor rotating across types so singleton types spread over
/// shards instead of piling onto shard 0 (a quad of 4 one-core types with
/// shards=4 yields one core per shard). `shards` is clamped to [1,
/// num_cores]; throws std::invalid_argument if shards < 1 or the platform
/// is empty.
ShardPartition make_shard_partition(const arch::Platform& platform,
                                    int shards);

/// Per-pass accounting of one sharded balance phase.
struct ShardPassStats {
  /// Shards that actually ran SA this pass (non-empty thread sets).
  int shard_passes = 0;
  /// Sum of per-shard SA CPU time — the machine-robust scaling metric
  /// (wall-clock depends on worker count; this does not).
  TimeNs shard_ns_total = 0;
  TimeNs exchange_ns = 0;
  int exchange_moves = 0;
  int iterations_total = 0;
};

/// Drives SmartBalancePolicy's BALANCE phase: one anneal of the whole
/// problem with one shard; K cluster-local anneals plus the global exchange
/// otherwise. Owns one SaOptimizer (and thus one ObjectiveScratch arena) per
/// shard, re-seeded every pass and never re-allocated. The K shard workers
/// share the caller's objective by const reference.
class ShardedBalancer {
 public:
  /// `sa_iterations` is the policy's SA budget (0 = the auto rule), the
  /// *global* budget split across shards each pass. With K > 1 the worker
  /// count is resolved here, once.
  ShardedBalancer(const arch::Platform& platform, ShardingConfig cfg,
                  int sa_iterations);

  /// Runs the balance phase for one epoch. `s` and `p` have one row per
  /// thread and one column per core class, and `columns` maps each of the
  /// platform's cores to its column (core/char_matrix.h). `columns` must
  /// have num_cores() entries, each a column of `s`, `affinity` and
  /// `demand` must have m entries and every initial core must lie in
  /// [0, num_cores()); otherwise this throws std::invalid_argument, at
  /// every K. With one shard this is SaOptimizer::optimize on the caller's
  /// inputs, seeded with `base_seed` and recording into `obs`. With K > 1,
  /// shard k anneals its threads' rows of S/P through its cores' columns,
  /// re-seeded with base_seed ^ (k · 0x9e3779b97f4a7c15), and
  /// `ts_offset_ns` positions the shard.pass spans after the sense+predict
  /// phases inside the epoch span; the result is merged: allocation over
  /// physical core ids, objective/initial_objective of the merged
  /// allocation, summed SA counters, host_ns = summed per-shard SA CPU +
  /// exchange time.
  SaResult balance(std::uint64_t pass, std::uint64_t base_seed,
                   const Matrix& s, const Matrix& p,
                   const std::vector<std::size_t>& columns,
                   const BalanceObjective& objective,
                   const std::vector<CoreId>& initial,
                   const std::vector<std::bitset<kMaxCores>>& affinity,
                   const std::vector<double>& demand, obs::Sink* obs,
                   TimeNs ts_offset_ns);

  const ShardingConfig& config() const { return cfg_; }
  const ShardPartition& partition() const { return partition_; }

  // --- Introspection for the report/bench layers ---
  const ShardPassStats& last_pass() const { return last_; }
  std::uint64_t shard_passes_total() const { return shard_passes_total_; }
  std::uint64_t exchange_moves_total() const { return exchange_moves_total_; }
  const RunningStats& exchange_ns() const { return exchange_ns_; }
  /// Cumulative per-shard SA CPU time over the run — the numerator of the
  /// fig_shard_scaling µs/core metric (CPU, not wall: independent of how
  /// many workers the passes happened to run on).
  std::uint64_t shard_cpu_ns_total() const { return shard_cpu_ns_total_; }
  std::uint64_t exchange_ns_total() const { return exchange_ns_total_; }

 private:
  struct ShardTask;

  /// Applies the bounded exchange phase to `allocation` in place; returns
  /// the number of moves kept (each move is re-scored against the merged
  /// objective and reverted if it does not improve it). `sums` holds the
  /// per-core sums of `allocation` and is kept up to date.
  int exchange(const Matrix& s, const Matrix& p,
               const std::vector<std::size_t>& columns,
               const BalanceObjective& objective,
               const std::vector<std::bitset<kMaxCores>>& affinity,
               const std::vector<double>& demand,
               std::vector<CoreId>& allocation, std::vector<CoreSums>& sums,
               double& merged_j);

  const arch::Platform& platform_;
  ShardingConfig cfg_;
  int sa_iterations_;
  ShardPartition partition_;
  /// Workers for the shard passes (1 with one shard).
  int jobs_ = 1;
  /// Column remap: core id -> its column inside its shard's sub-problem.
  std::vector<int> col_of_core_;
  /// One persistent optimizer (scratch arena) per shard.
  std::vector<std::unique_ptr<SaOptimizer>> optimizers_;

  ShardPassStats last_;
  std::uint64_t shard_passes_total_ = 0;
  std::uint64_t exchange_moves_total_ = 0;
  std::uint64_t shard_cpu_ns_total_ = 0;
  std::uint64_t exchange_ns_total_ = 0;
  RunningStats exchange_ns_;
};

}  // namespace sb::core
