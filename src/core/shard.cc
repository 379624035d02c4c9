#include "core/shard.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/parallel.h"
#include "common/spec.h"
#include "obs/sink.h"

namespace sb::core {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-shard seed stride (2^64 / φ): shard 0 keeps the policy's per-pass
/// seed unchanged.
constexpr std::uint64_t kShardSeedStride = 0x9e3779b97f4a7c15ULL;

/// Minimum relative per-thread efficiency gain for an exchange candidate.
constexpr double kExchangeMinGain = 0.02;

// K[:jobs[:moves]]; defaults match ShardingConfig (moves -1 = auto).
constexpr spec::Field kFields[] = {
    {"shards", spec::Kind::kInt, 0, kMaxCores},
    {"jobs", spec::Kind::kInt, 0, 4096, 0},
    {"moves", spec::Kind::kInt, 0, 1 << 20, -1},
};

/// Per-core sums of an explicit allocation, with the occupancy rule the
/// annealer uses — O(m + n) with no per-cell cache, since it runs a
/// handful of times per epoch instead of inside the annealing loop.
void fill_sums(const Matrix& s, const Matrix& p,
               const std::vector<std::size_t>& columns,
               const std::vector<CoreId>& allocation,
               const std::vector<double>& demand,
               std::vector<CoreSums>& sums) {
  sums.assign(columns.size(), CoreSums{});
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    const auto c = static_cast<std::size_t>(allocation[i]);
    const std::size_t col = columns[c];
    sums[c].add(occupancy(demand[i], s.at(i, col)), s.at(i, col),
                p.at(i, col));
  }
}

}  // namespace

ShardingConfig ShardingConfig::parse(const std::string& text) {
  ShardingConfig cfg;
  double v[] = {0, static_cast<double>(cfg.jobs),
                static_cast<double>(cfg.exchange_moves)};
  spec::read_fields("--shards", kFields, spec::split(text, ':'), v);
  cfg.shards = static_cast<int>(v[0]);
  cfg.jobs = static_cast<int>(v[1]);
  cfg.exchange_moves = static_cast<int>(v[2]);
  return cfg;
}

std::string ShardingConfig::canonical() const {
  std::string out;
  spec::append_fields(out, kFields,
                      {static_cast<double>(shards), static_cast<double>(jobs),
                       static_cast<double>(exchange_moves)});
  return out;
}

ShardPartition make_shard_partition(const arch::Platform& platform,
                                    int shards) {
  const int n = platform.num_cores();
  if (shards < 1) {
    throw std::invalid_argument("make_shard_partition: shards < 1");
  }
  if (n <= 0) {
    throw std::invalid_argument("make_shard_partition: empty platform");
  }
  const int k = std::min(shards, n);
  ShardPartition part;
  part.cores.resize(static_cast<std::size_t>(k));
  part.shard_of.assign(static_cast<std::size_t>(n), -1);

  // Per type, deal contiguous chunks of the ascending core list across the
  // shards. The remainder cursor rotates across types so small types land
  // on fresh shards: the first `n` leftover cores overall hit `n` distinct
  // shards, which guarantees no shard is empty when k <= n.
  int rot = 0;
  for (CoreTypeId t = 0; t < platform.num_types(); ++t) {
    const std::vector<CoreId>& ct = platform.cores_of_type(t);
    const int nt = static_cast<int>(ct.size());
    const int base = nt / k;
    const int rem = nt % k;
    std::vector<int> cnt(static_cast<std::size_t>(k), base);
    for (int i = 0; i < rem; ++i) ++cnt[static_cast<std::size_t>((rot + i) % k)];
    std::size_t pos = 0;
    for (int sidx = 0; sidx < k; ++sidx) {
      for (int i = 0; i < cnt[static_cast<std::size_t>(sidx)]; ++i, ++pos) {
        const CoreId c = ct[pos];
        part.cores[static_cast<std::size_t>(sidx)].push_back(c);
        part.shard_of[static_cast<std::size_t>(c)] = sidx;
      }
    }
    rot = (rot + rem) % k;
  }
  for (auto& cores : part.cores) std::sort(cores.begin(), cores.end());
  return part;
}

struct ShardedBalancer::ShardTask {
  std::vector<std::size_t> rows;  // global thread rows, ascending
  Matrix s, p;                    // those rows, every column of the caller's
  std::vector<std::size_t> columns;  // local core -> column of s/p
  std::vector<CoreId> initial;       // local cores
  std::vector<std::bitset<kMaxCores>> affinity;
  std::vector<double> demand;
  SaResult result;
  int worker = -1;
  bool ran = false;
};

ShardedBalancer::ShardedBalancer(const arch::Platform& platform,
                                 ShardingConfig cfg, int sa_iterations)
    : platform_(platform),
      cfg_(cfg),
      sa_iterations_(sa_iterations),
      partition_(make_shard_partition(platform, std::max(1, cfg.shards))) {
  const int k = partition_.num_shards();
  if (k > 1) {
    jobs_ = cfg_.jobs > 0 ? cfg_.jobs : std::min(k, common::resolve_jobs(0));
  }
  col_of_core_.assign(static_cast<std::size_t>(platform.num_cores()), -1);
  for (const auto& cores : partition_.cores) {
    for (std::size_t j = 0; j < cores.size(); ++j) {
      col_of_core_[static_cast<std::size_t>(cores[j])] = static_cast<int>(j);
    }
  }
  optimizers_.reserve(partition_.cores.size());
  for (std::size_t ki = 0; ki < partition_.cores.size(); ++ki) {
    optimizers_.push_back(std::make_unique<SaOptimizer>(
        SaConfig{.max_iterations = sa_iterations_}));
  }
}

SaResult ShardedBalancer::balance(
    std::uint64_t pass, std::uint64_t base_seed, const Matrix& s,
    const Matrix& p, const std::vector<std::size_t>& columns,
    const BalanceObjective& objective, const std::vector<CoreId>& initial,
    const std::vector<std::bitset<kMaxCores>>& affinity,
    const std::vector<double>& demand, obs::Sink* obs, TimeNs ts_offset_ns) {
  const int k = partition_.num_shards();
  const std::size_t m = initial.size();
  const auto n = static_cast<std::size_t>(platform_.num_cores());
  if (affinity.size() != m || demand.size() != m) {
    throw std::invalid_argument("ShardedBalancer: per-thread vector size");
  }
  if (s.rows() != m || p.rows() != m || p.cols() != s.cols() ||
      columns.size() != n) {
    throw std::invalid_argument(
        "ShardedBalancer: S/P must be threads x core classes, with one "
        "column per platform core");
  }
  for (const std::size_t col : columns) {
    if (col >= s.cols()) {
      throw std::invalid_argument("ShardedBalancer: column out of range");
    }
  }
  for (const CoreId c : initial) {
    if (c < 0 || static_cast<std::size_t>(c) >= n) {
      throw std::invalid_argument("ShardedBalancer: initial core out of range");
    }
  }
  if (k == 1) {
    // One shard: the whole problem, annealed in place.
    SaOptimizer& opt = *optimizers_[0];
    opt.set_seed(base_seed);
    opt.set_obs(obs);
    return opt.optimize(s, p, objective, initial, &affinity, &demand, nullptr,
                        &columns);
  }
  last_ = ShardPassStats{};

  // Row partition: each thread anneals inside the shard of its current
  // core (the exchange phase below is the only cross-shard channel).
  std::vector<ShardTask> tasks(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < m; ++i) {
    const auto c = static_cast<std::size_t>(initial[i]);
    tasks[static_cast<std::size_t>(partition_.shard_of[c])].rows.push_back(i);
  }

  // One global iteration budget, split evenly: total annealing work stays
  // constant as shards are added, so the per-core cost falls as 1/K.
  const int total_budget =
      sa_iterations_ > 0
          ? sa_iterations_
          : sa_auto_iterations(static_cast<int>(n), static_cast<int>(m));
  const int shard_budget = std::max(100, total_budget / k);

  common::parallel_for(
      static_cast<std::size_t>(k), jobs_, [&](std::size_t ki, int worker) {
        ShardTask& t = tasks[ki];
        t.worker = worker;
        if (t.rows.empty()) return;
        const std::vector<CoreId>& cores = partition_.cores[ki];
        const std::size_t sn = cores.size();
        const std::size_t sm = t.rows.size();
        const std::size_t cols = s.cols();
        t.s = Matrix(sm, cols);
        t.p = Matrix(sm, cols);
        t.columns.resize(sn);
        for (std::size_t j = 0; j < sn; ++j) {
          t.columns[j] = columns[static_cast<std::size_t>(cores[j])];
        }
        t.initial.resize(sm);
        t.affinity.resize(sm);
        t.demand.resize(sm);
        for (std::size_t r = 0; r < sm; ++r) {
          const std::size_t i = t.rows[r];
          for (std::size_t c = 0; c < cols; ++c) {
            t.s.at(r, c) = s.at(i, c);
            t.p.at(r, c) = p.at(i, c);
          }
          for (std::size_t j = 0; j < sn; ++j) {
            if (affinity[i][static_cast<std::size_t>(cores[j])]) {
              t.affinity[r].set(j);
            }
          }
          t.initial[r] = col_of_core_[static_cast<std::size_t>(initial[i])];
          t.demand[r] = demand[i];
        }
        SaOptimizer& opt = *optimizers_[ki];
        opt.set_seed(base_seed ^
                     (static_cast<std::uint64_t>(ki) * kShardSeedStride));
        opt.set_max_iterations(shard_budget);
        t.result = opt.optimize(t.s, t.p, objective, t.initial, &t.affinity,
                                &t.demand, &cores, &t.columns);
        t.ran = true;
      });

  SaResult merged;
  merged.allocation = initial;
  for (std::size_t ki = 0; ki < tasks.size(); ++ki) {
    const ShardTask& t = tasks[ki];
    if (!t.ran) continue;
    const std::vector<CoreId>& cores = partition_.cores[ki];
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      merged.allocation[t.rows[r]] =
          cores[static_cast<std::size_t>(t.result.allocation[r])];
    }
    merged.iterations += t.result.iterations;
    merged.accepted_worse += t.result.accepted_worse;
    merged.improved += t.result.improved;
    merged.resyncs += t.result.resyncs;
    merged.host_ns += t.result.host_ns;
  }
  std::vector<CoreSums> sums;
  fill_sums(s, p, columns, initial, demand, sums);
  merged.initial_objective = objective.evaluate(sums);
  fill_sums(s, p, columns, merged.allocation, demand, sums);
  merged.objective = objective.evaluate(sums);

  const auto x0 = Clock::now();
  const int moves = exchange(s, p, columns, objective, affinity, demand,
                             merged.allocation, sums, merged.objective);
  const TimeNs exchange_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - x0)
          .count();
  merged.host_ns += exchange_ns;

  // Accounting + observability, after the join, in shard order — workers
  // never touch the sink, so --jobs=1/8 emit identical deterministic
  // counters (host-clock span durations vary run to run, like epoch.*_ns).
  int ran_count = 0;
  for (const ShardTask& t : tasks) {
    if (!t.ran) continue;
    ++ran_count;
    last_.shard_ns_total += t.result.host_ns;
    last_.iterations_total += t.result.iterations;
  }
  last_.shard_passes = ran_count;
  last_.exchange_ns = exchange_ns;
  last_.exchange_moves = moves;
  shard_passes_total_ += static_cast<std::uint64_t>(ran_count);
  exchange_moves_total_ += static_cast<std::uint64_t>(moves);
  shard_cpu_ns_total_ += static_cast<std::uint64_t>(last_.shard_ns_total);
  exchange_ns_total_ += static_cast<std::uint64_t>(exchange_ns);
  exchange_ns_.add(static_cast<double>(exchange_ns));

  if (obs != nullptr) {
    auto& metrics = obs->metrics();
    if (ran_count > 0) {
      metrics.counter("shard.passes").add(static_cast<std::uint64_t>(ran_count));
    }
    if (moves > 0) {
      metrics.counter("shard.exchange.moves")
          .add(static_cast<std::uint64_t>(moves));
    }
    for (const ShardTask& t : tasks) {
      if (t.ran) {
        metrics.histogram("shard.pass_ns")
            .record(static_cast<std::uint64_t>(t.result.host_ns));
      }
    }
    if (auto* tracer = obs->tracer()) {
      // Shard spans laid out per executing worker, sequentially from the
      // end of the predict phase: each worker really did run its shards
      // back to back, so chains never overlap within a worker and every
      // span sits inside the epoch span (validated by check_trace.py).
      const std::uint64_t base =
          obs->now_ns() + static_cast<std::uint64_t>(ts_offset_ns);
      std::vector<std::uint64_t> worker_off(tasks.size(), 0);
      std::uint64_t chain_end = 0;
      for (std::size_t ki = 0; ki < tasks.size(); ++ki) {
        const ShardTask& t = tasks[ki];
        if (!t.ran) continue;
        const auto w = static_cast<std::size_t>(std::max(t.worker, 0));
        const auto dur = static_cast<std::uint64_t>(t.result.host_ns);
        tracer->span("shard.pass", base + worker_off[w], dur, pass,
                     {{"shard", static_cast<double>(ki)},
                      {"worker", static_cast<double>(w)},
                      {"iterations",
                       static_cast<double>(t.result.iterations)}});
        worker_off[w] += dur;
        chain_end = std::max(chain_end, worker_off[w]);
      }
      tracer->span("shard.exchange", base + chain_end,
                   static_cast<std::uint64_t>(exchange_ns), pass,
                   {{"moves", static_cast<double>(moves)}});
    }
  }
  return merged;
}

int ShardedBalancer::exchange(
    const Matrix& s, const Matrix& p, const std::vector<std::size_t>& columns,
    const BalanceObjective& objective,
    const std::vector<std::bitset<kMaxCores>>& affinity,
    const std::vector<double>& demand, std::vector<CoreId>& allocation,
    std::vector<CoreSums>& sums, double& merged_j) {
  const int k = partition_.num_shards();
  const std::size_t m = allocation.size();
  const int budget =
      cfg_.exchange_moves >= 0
          ? cfg_.exchange_moves
          : std::max(1, std::min(static_cast<int>(m) / 16, 4 * k));
  if (budget <= 0) return 0;

  // Shard membership masks for the apply loop, plus a per-(shard, type)
  // reachability table for the scan. The scan must not pay bitset
  // arithmetic per (thread, type), so affinity is enforced later, at apply
  // time — a pinned thread's candidate simply finds no destination.
  const CoreTypeId q = platform_.num_types();
  // cores_of_type returns by value — materialize each type's core list
  // once; the scan below would otherwise copy it per (thread, type).
  std::vector<std::vector<CoreId>> cores_by_type(static_cast<std::size_t>(q));
  for (CoreTypeId t = 0; t < q; ++t) {
    cores_by_type[static_cast<std::size_t>(t)] = platform_.cores_of_type(t);
  }
  std::vector<std::bitset<kMaxCores>> shard_mask(static_cast<std::size_t>(k));
  std::vector<char> reachable(static_cast<std::size_t>(k) *
                                  static_cast<std::size_t>(q),
                              0);
  for (int sidx = 0; sidx < k; ++sidx) {
    std::vector<std::size_t> in_shard(static_cast<std::size_t>(q), 0);
    for (const CoreId c : partition_.cores[static_cast<std::size_t>(sidx)]) {
      shard_mask[static_cast<std::size_t>(sidx)].set(
          static_cast<std::size_t>(c));
      ++in_shard[static_cast<std::size_t>(platform_.type_of(c))];
    }
    for (CoreTypeId t = 0; t < q; ++t) {
      reachable[static_cast<std::size_t>(sidx) * static_cast<std::size_t>(q) +
                static_cast<std::size_t>(t)] =
          cores_by_type[static_cast<std::size_t>(t)].size() >
                  in_shard[static_cast<std::size_t>(t)]
              ? 1
              : 0;
    }
  }
  const std::size_t n = sums.size();
  std::vector<int> load(n, 0);
  for (const CoreId c : allocation) ++load[static_cast<std::size_t>(c)];

  // Regret scan: each thread's best forecast efficiency on another core
  // type, relative to where it sits now. One probe core per type keeps the
  // scan O(m·q) — same-type cores share a microarchitecture, so the probe
  // row is representative; the merged-J check at apply time is what
  // guarantees a bad forecast can't regress the allocation.
  struct Cand {
    double gain;
    std::size_t row;
    CoreTypeId type;
  };
  std::vector<Cand> cands;
  for (std::size_t i = 0; i < m; ++i) {
    const CoreId cur = allocation[i];
    const auto cur_shard = static_cast<std::size_t>(
        partition_.shard_of[static_cast<std::size_t>(cur)]);
    const std::size_t cur_col = columns[static_cast<std::size_t>(cur)];
    const double cur_w = p.at(i, cur_col);
    const double cur_eff = cur_w > 0 ? s.at(i, cur_col) / cur_w : 0.0;
    Cand best{0.0, i, -1};
    for (CoreTypeId t = 0; t < q; ++t) {
      if (!reachable[cur_shard * static_cast<std::size_t>(q) +
                     static_cast<std::size_t>(t)]) {
        continue;
      }
      const std::size_t rep = columns[static_cast<std::size_t>(
          cores_by_type[static_cast<std::size_t>(t)].front())];
      const double w = p.at(i, rep);
      if (w <= 0) continue;
      const double eff = s.at(i, rep) / w;
      const double rel = cur_eff > 0 ? (eff - cur_eff) / cur_eff
                                     : (eff > 0 ? 1.0 : 0.0);
      if (rel > best.gain) best = Cand{rel, i, t};
    }
    if (best.type >= 0 && best.gain > kExchangeMinGain) {
      cands.push_back(best);
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    return a.row < b.row;
  });
  if (cands.size() > static_cast<std::size_t>(budget)) {
    cands.resize(static_cast<std::size_t>(budget));
  }

  // Apply each candidate to the least-loaded allowed core of its target
  // (shard, type), keeping the move only if the merged objective actually
  // improves — the per-thread regret is a forecast heuristic; the merged J
  // is the contract. A move touches exactly two cores, so the merged J is
  // maintained incrementally from the caller's per-core sums: two per-core
  // term re-derivations per candidate. That keeps the whole apply loop
  // O(E) — re-evaluating the full objective per move would put an
  // O(E·(m + n)) ~ n² tail on the pass and sink the sublinearity gate.
  // Per-core cached terms plus their aggregates; the initial aggregate is
  // arithmetically identical (same accumulation order) to what
  // BalanceObjective::evaluate computed for the caller.
  const bool fractional = objective.fractional();
  std::vector<std::array<double, 2>> frac;
  std::vector<double> term;
  double num = 0, den = 0, total = 0;
  if (fractional) {
    frac.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      frac[j] = objective.core_fraction(sums[j], static_cast<CoreId>(j));
      num += frac[j][0];
      den += frac[j][1];
    }
  } else {
    term.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      term[j] = objective.core_term(sums[j], static_cast<CoreId>(j));
      total += term[j];
    }
  }
  double cur_j = fractional ? (den > 0 ? num / den : 0.0) : total;

  // Per-type core order, least-loaded first, computed once: the apply loop
  // takes the first feasible entry instead of walking the whole type list
  // per candidate (O(E·n_type) otherwise, which is exactly the n² tail the
  // incremental J above removed). The order goes slightly stale as moves
  // commit — acceptable for a placement heuristic, since the merged-J
  // check still decides every move.
  std::vector<std::vector<CoreId>> type_order(static_cast<std::size_t>(q));
  for (CoreTypeId t = 0; t < q; ++t) {
    auto& order = type_order[static_cast<std::size_t>(t)];
    order = cores_by_type[static_cast<std::size_t>(t)];
    std::sort(order.begin(), order.end(), [&](CoreId a, CoreId b) {
      const int la = load[static_cast<std::size_t>(a)];
      const int lb = load[static_cast<std::size_t>(b)];
      if (la != lb) return la < lb;
      return a < b;
    });
  }

  int moves = 0;
  for (const Cand& c : cands) {
    // First feasible core of the target type outside the thread's shard.
    const auto cur_shard = static_cast<std::size_t>(
        partition_.shard_of[static_cast<std::size_t>(allocation[c.row])]);
    CoreId dest = kInvalidCore;
    for (const CoreId cand : type_order[static_cast<std::size_t>(c.type)]) {
      if (shard_mask[cur_shard].test(static_cast<std::size_t>(cand))) continue;
      if (!affinity[c.row].test(static_cast<std::size_t>(cand))) continue;
      dest = cand;
      break;
    }
    if (dest == kInvalidCore) continue;
    const auto a = static_cast<std::size_t>(allocation[c.row]);
    const auto b = static_cast<std::size_t>(dest);
    const std::size_t col_a = columns[a];
    const std::size_t col_b = columns[b];
    CoreSums sum_a = sums[a];
    CoreSums sum_b = sums[b];
    sum_a.remove(occupancy(demand[c.row], s.at(c.row, col_a)),
                 s.at(c.row, col_a), p.at(c.row, col_a));
    sum_b.add(occupancy(demand[c.row], s.at(c.row, col_b)), s.at(c.row, col_b),
              p.at(c.row, col_b));
    double j = 0, new_num = 0, new_den = 0;
    std::array<double, 2> fa{}, fb{};
    double ta = 0, tb = 0;
    if (fractional) {
      fa = objective.core_fraction(sum_a, static_cast<CoreId>(a));
      fb = objective.core_fraction(sum_b, static_cast<CoreId>(b));
      new_num = num - frac[a][0] - frac[b][0] + fa[0] + fb[0];
      new_den = den - frac[a][1] - frac[b][1] + fa[1] + fb[1];
      j = new_den > 0 ? new_num / new_den : 0.0;
    } else {
      ta = objective.core_term(sum_a, static_cast<CoreId>(a));
      tb = objective.core_term(sum_b, static_cast<CoreId>(b));
      j = total - term[a] - term[b] + ta + tb;
    }
    if (j > cur_j) {
      cur_j = j;
      ++moves;
      allocation[c.row] = dest;
      sums[a] = sum_a;
      sums[b] = sum_b;
      if (fractional) {
        frac[a] = fa;
        frac[b] = fb;
        num = new_num;
        den = new_den;
      } else {
        term[a] = ta;
        term[b] = tb;
        total = j;
      }
      --load[a];
      ++load[b];
    }
  }
  if (moves > 0) merged_j = cur_j;
  return moves;
}

}  // namespace sb::core
