// Run-time simulated-annealing thread allocator — Algorithm 1.
//
// The allocation Ψ is encoded exactly as the paper's uni-dimensional array
// of n·m slots (m slots per core); a thread occupies one slot, the rest are
// empty. A move swaps two slots chosen with a perturbation radius that
// decays by Opt_Δperturb each iteration: a thread↔empty swap is a
// migration, a thread↔thread swap exchanges two threads' cores. Worse
// solutions are accepted with probability e^(diff/accept) evaluated in
// Q16.16 fixed point with the paper's `randi() mod 1/probability == 0`
// acceptance test (§4.3), and `accept` decays by Opt_Δaccept. The schedule
// is one set of constants (kSaInitialPerturb … kSaAcceptDecay); a caller
// chooses only the iteration budget and the seed. The objective is
// re-evaluated incrementally: only the two affected cores' terms change.
//
// Hot-path engineering (the per-epoch cost *is* the product — Fig. 7b):
//  - all working vectors (Ψ slots, per-core sums, contributions, the
//    occupancy cells, current/best allocations) live in a scratch arena
//    owned by the optimizer, so repeated optimize() calls allocate nothing
//    once the arena has grown to the problem size;
//  - the objective is devirtualized: optimize() dispatches once, by
//    dynamic_cast to the two built-in final classes, to an annealing
//    kernel templated on that class (custom objectives fall back to the
//    generic virtual-dispatch kernel with identical semantics);
//  - cells are (thread, class), not (thread, core): a thread's occupancy and
//    occupancy-weighted S/P values depend on its core only through the
//    core's S/P column, which per-class matrices (core/char_matrix.h) share
//    across a class. A cell is computed on the call's first read
//    (interleaved, one cache line per cell) and reused after; at 128 × 256
//    on scaled:32 all 1k cells fit in 24 KB;
//  - slot draws are reduced modulo n·m and slot→core indices divided by m
//    with precomputed reciprocals (common/rng.h FastMod) instead of
//    hardware division — a mask and a shift when, as at 128 × 256 and on
//    the quad, both are powers of two — and the two unconditional draws
//    per iteration are batched;
//  - the perturbation-radius schedule sqrt(perturb_it) depends only on the
//    schedule constants, not the RNG, so it is one table of Q16.16 raw
//    values built once per process: the fixed-point sqrt never runs in the
//    loop, and a proposal's offset is an integer multiply;
//  - an empty↔empty or same-core proposal (98% of the iterations at
//    128 × 256) ends after its draws, two slot loads and one combined
//    test. Affinity bits are read unchecked (optimize() rejects masks on
//    problems past kMaxCores). The acceptance temperature, which decays
//    once per iteration, is caught up only when a move that does not
//    improve J reads it, one multiply per skipped iteration in order, and
//    never again once a multiply returns its input bit for bit (at
//    Opt_Δaccept = 0.95 it sticks at the smallest subnormal after ~14k
//    iterations, where each multiply costs more than a whole skipped
//    iteration). The certain-reject bound -12·accept is recomputed only
//    when `accept` changes.
// None of this changes the RNG draw sequence or the floating-point
// arithmetic, so results are bit-identical to the straightforward
// implementation.
#pragma once

#include <bitset>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/objective.h"
#include "core/objective_state.h"

namespace sb::obs {
class Sink;
}  // namespace sb::obs

namespace sb::core {

/// Algorithm 1's schedule, the same for every anneal.
inline constexpr double kSaInitialPerturb = 1.0;  // Opt_perturb
inline constexpr double kSaPerturbDecay = 0.98;   // Opt_Δperturb
/// Initial acceptance temperature as a fraction of |J(Ψ₀)|.
inline constexpr double kSaInitialAcceptRel = 0.05;  // Opt_accept (relative)
inline constexpr double kSaAcceptDecay = 0.95;       // Opt_Δaccept

struct SaConfig {
  /// Iteration budget (Opt_max_iter); 0 = auto-scale from (n, m) with the
  /// Fig. 8(a) rule.
  int max_iterations = 0;
  std::uint64_t seed = 1;
};

/// Iteration budget used when SaConfig::max_iterations == 0. Grows with the
/// problem and saturates to bound overhead at scale (Fig. 8a: "for larger
/// configurations we limit the number of iterations").
int sa_auto_iterations(int num_cores, int num_threads);

struct SaResult {
  std::vector<CoreId> allocation;  // thread row -> core
  double objective = 0;
  double initial_objective = 0;
  int iterations = 0;
  int accepted_worse = 0;
  int improved = 0;
  int resyncs = 0;     // drift resyncs performed (every 4096 accepted moves)
  TimeNs host_ns = 0;  // wall-clock cost of the search (Fig. 7 overhead)
};

class SaOptimizer {
 public:
  SaOptimizer() : SaOptimizer(SaConfig()) {}
  explicit SaOptimizer(SaConfig cfg) : cfg_(cfg) {}

  /// Finds an allocation maximizing Σ_j objective.core_term(core j sums).
  /// `s` and `p` are the characterization matrices (GIPS / watts), one row
  /// per thread and one column per core, or per core class with `columns`;
  /// `initial` the current allocation; `affinity` (optional) per-thread
  /// allowed-core masks, which hold kMaxCores bits: with masks, a problem
  /// of more cores throws std::invalid_argument.
  ///
  /// `demand_gips` (optional) realizes Algorithm 1's thread utilization
  /// vector U in speed-invariant form: entry i is the thread's *demanded*
  /// throughput (util × measured GIPS, i.e. instructions per wall-clock
  /// second including its sleep time). A negative entry marks a CPU-bound
  /// thread (unbounded demand: it consumes a full share wherever it runs).
  /// On core j a duty-cycled thread occupies util_ij = min(1, d_i / s_ij)
  /// of the core, contributing util_ij·s_ij GIPS and util_ij·p_ij watts —
  /// so slow cores that cannot sustain the demand are correctly penalized,
  /// and sleepy threads don't look like full load.
  ///
  /// `columns` (optional) maps each of the problem's cores to the column of
  /// `s`/`p` holding its values, so per-class matrices (core/char_matrix.h)
  /// are annealed in place; the problem then has columns->size() cores.
  /// Null means column j is core j: `s` and `p` are per-core, m × n. Throws
  /// std::invalid_argument if an entry is not a column of `s`.
  ///
  /// `cores` (optional, one entry per problem core) maps problem core j to
  /// the physical core id the objective sees; null means core j is
  /// physical core j. The sharded balancer passes a shard's core list, so
  /// per-core weights and sleep powers keep pointing at the right core.
  /// Throws std::invalid_argument unless it has one entry per core.
  ///
  /// Non-const: the call reuses the optimizer's scratch arena. A single
  /// SaOptimizer must not be shared across threads; results are
  /// independent of any prior calls on the same instance.
  SaResult optimize(const Matrix& s, const Matrix& p,
                    const BalanceObjective& objective,
                    std::vector<CoreId> initial,
                    const std::vector<std::bitset<kMaxCores>>* affinity =
                        nullptr,
                    const std::vector<double>* demand_gips = nullptr,
                    const std::vector<CoreId>* cores = nullptr,
                    const std::vector<std::size_t>* columns = nullptr);

  /// Re-seeds the annealing trajectory of subsequent optimize() calls
  /// without discarding the scratch arena (one optimizer, one seed per
  /// epoch).
  void set_seed(std::uint64_t seed) { cfg_.seed = seed; }

  /// Overrides the iteration budget of subsequent optimize() calls (0 =
  /// auto-scale). The sharded balancer uses this to split one global budget
  /// across shard-local passes so total annealing work stays constant as
  /// shards are added.
  void set_max_iterations(int iters) { cfg_.max_iterations = iters; }

  /// Observability hook (null = off): each optimize() call feeds the `sa.*`
  /// counters and the sa.host_ns histogram. Recording happens after the
  /// anneal returns, so the search itself is untouched.
  void set_obs(obs::Sink* obs) { obs_ = obs; }

 private:
  template <class Obj>
  SaResult run_annealing(const Matrix& s, const Matrix& p, const Obj& obj,
                         std::vector<CoreId> initial,
                         const std::vector<std::bitset<kMaxCores>>* affinity,
                         const std::vector<double>* demand_gips,
                         const std::vector<CoreId>* cores,
                         const std::vector<std::size_t>* columns);

  SaConfig cfg_;
  obs::Sink* obs_ = nullptr;

  /// Scratch arena surviving across epochs: Ψ slots, the current
  /// allocation and the objective-state storage.
  struct Scratch {
    std::vector<std::int32_t> psi;
    std::vector<std::size_t> next_free;
    std::vector<CoreId> current;
    ObjectiveScratch objective;
  } scratch_;
};

/// Exhaustive optimum for small instances (n^m enumeration); used by tests
/// and by the Fig. 8 distance-to-optimal study. Enumerates allocations in
/// mixed-radix reflected Gray-code order so each step moves exactly one
/// thread and updates one incremental ObjectiveState (O(1) per state
/// instead of a full O(m·n) rebuild). Throws std::invalid_argument if n^m
/// exceeds ~16M states.
SaResult exhaustive_optimum(const Matrix& s, const Matrix& p,
                            const BalanceObjective& objective);

/// Evaluates Σ_j core_term for an explicit allocation (reference/debug).
double evaluate_allocation(const Matrix& s, const Matrix& p,
                           const BalanceObjective& objective,
                           const std::vector<CoreId>& allocation);

}  // namespace sb::core
