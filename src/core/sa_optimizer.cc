#include "core/sa_optimizer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/fixed_math.h"
#include "obs/sink.h"

namespace sb::core {
namespace {

/// The perturbation radius sqrt(perturb_it) of every iteration, as Q16.16
/// raw values. perturb starts at Opt_perturb and each iteration multiplies
/// it by Opt_Δperturb in Q16.16, clamping the raw value to 16 so the radius
/// never reaches zero. The table ends where the clamp holds perturb fixed
/// (369 entries); later iterations read its last entry. It depends only on
/// the schedule constants, so it is built once per process, and the Q16.16
/// fixed_sqrt (a Newton loop with a 64-bit division per step) never runs in
/// the loop. The static is initialized thread-safely on first use by any
/// shard worker.
const std::vector<std::int64_t>& radius_schedule() {
  static const std::vector<std::int64_t> radii = [] {
    std::vector<std::int64_t> r;
    Fixed perturb = Fixed::from_double(kSaInitialPerturb);
    const Fixed dperturb = Fixed::from_double(kSaPerturbDecay);
    while (true) {
      r.push_back(fixed_sqrt(perturb).raw());
      Fixed next = perturb * dperturb;
      if (next.raw() < 16) next = Fixed::from_raw(16);
      if (next.raw() == perturb.raw()) return r;
      perturb = next;
    }
  }();
  return radii;
}

}  // namespace

int sa_auto_iterations(int num_cores, int num_threads) {
  // ~12 proposals per (thread, core) pair, saturating where the measured
  // per-iteration cost (21 ns on the quad, 16 ns at 128×256 in Release;
  // BENCH_sa.json) would push a pass beyond a few milliseconds of the 60 ms
  // epoch (Fig. 8a: "for larger configurations we limit the number of
  // iterations").
  const long nm = static_cast<long>(num_cores) * num_threads;
  return static_cast<int>(std::min<long>(100 + 12 * nm, 60000));
}

double evaluate_allocation(const Matrix& s, const Matrix& p,
                           const BalanceObjective& objective,
                           const std::vector<CoreId>& allocation) {
  if (s.rows() != allocation.size() || p.rows() != allocation.size() ||
      s.cols() != p.cols()) {
    throw std::invalid_argument("evaluate_allocation: shape mismatch");
  }
  for (const CoreId c : allocation) {
    if (c < 0 || static_cast<std::size_t>(c) >= s.cols()) {
      throw std::invalid_argument("evaluate_allocation: bad core id");
    }
  }
  ObjectiveScratch scratch;
  ObjectiveState<BalanceObjective> state(scratch, s, p, objective, allocation);
  return state.total();
}

template <class Obj>
SaResult SaOptimizer::run_annealing(
    const Matrix& s, const Matrix& p, const Obj& objective,
    std::vector<CoreId> initial,
    const std::vector<std::bitset<kMaxCores>>* affinity,
    const std::vector<double>* demand_gips, const std::vector<CoreId>* cores,
    const std::vector<std::size_t>* columns) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t m = s.rows();
  const auto n = static_cast<std::int64_t>(
      columns != nullptr ? columns->size() : s.cols());

  // Ψ as the paper's flat slot array: m slots per core, entry = thread row
  // or -1. Each thread starts in a slot of its current core. slot→core is
  // slot / m, computed with a precomputed reciprocal (a shift when m is a
  // power of two) so the inner loop neither divides nor touches a lookup
  // table.
  const std::int64_t slots = n * static_cast<std::int64_t>(m);
  std::vector<std::int32_t>& psi = scratch_.psi;
  psi.assign(static_cast<std::size_t>(slots), -1);
  {
    std::vector<std::size_t>& next_free = scratch_.next_free;
    next_free.assign(static_cast<std::size_t>(n), 0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto c = static_cast<std::size_t>(initial[i]);
      const std::size_t slot = c * m + next_free[c]++;
      psi[slot] = static_cast<std::int32_t>(i);
    }
  }
  const FastMod slot_div(static_cast<std::uint64_t>(m));

  ObjectiveState<Obj> state(scratch_.objective, s, p, objective, initial,
                            demand_gips, cores, columns);
  SaResult best;
  best.initial_objective = state.total();
  best.allocation = initial;
  best.objective = state.total();

  Rng rng(cfg_.seed);
  // Every slot draw reduces a 64-bit sample modulo the same n·m; a
  // precomputed reciprocal replaces the hardware division. randi(0, slots)
  // and randi(-pos, slots - pos) both have span == slots, so the draw
  // sequence is unchanged.
  const FastMod fm(static_cast<std::uint64_t>(slots));
  const auto core_of = [&slot_div](std::int64_t slot) {
    return static_cast<CoreId>(slot_div.div(static_cast<std::uint64_t>(slot)));
  };
  const int iters = cfg_.max_iterations > 0
                        ? cfg_.max_iterations
                        : sa_auto_iterations(static_cast<int>(n),
                                             static_cast<int>(m));
  const std::vector<std::int64_t>& radii = radius_schedule();
  const auto table_len = static_cast<int>(radii.size());
  const std::int64_t radius_tail = radii.back();
  // The acceptance temperature decays by Opt_Δaccept once per iteration,
  // move or no move, so iteration `it` reads `accept` after it + 1
  // multiplies. Only a move that does not improve J reads it, so the
  // multiplies are caught up there, one at a time in the same order: every
  // value is the one a multiply per iteration would give, and an empty
  // proposal does no floating-point work. `accept` sinks into the
  // subnormals after ~14k iterations and then sticks at 4.9e-324 (x·0.95
  // rounds back to x). Once a product equals its input bit for bit, every
  // later product is that same value, so the multiplies stop there. The
  // comparison is on bits, not ==, so that -0 and +0 never count as a
  // fixed point.
  double accept =
      std::max(1e-9, kSaInitialAcceptRel * std::abs(state.total()));
  int accept_decays = 0;
  bool accept_frozen = false;
  // The certain-reject bound below, recomputed only when `accept` changes.
  // The cut needs accept > 0 (at -0.0 the ratio is +inf and the move wins);
  // the positive schedule never leaves it, since `accept` starts at >= 1e-9
  // and sticks at the smallest subnormal.
  const auto reject_bound = [](double a) {
    return a > 0.0 ? -12.0 * a : -std::numeric_limits<double>::infinity();
  };
  double reject_below = reject_bound(accept);

  std::vector<CoreId>& current = scratch_.current;
  current = initial;
  double current_obj = state.total();
  int accepted_since_resync = 0;

  for (int it = 0; it < iters; ++it) {
    // --- Propose: perturbation-radius slot swap (Algorithm 1) ---
    // Both unconditional draws are batched up front (identical sequence to
    // drawing them at their use sites).
    const std::uint64_t r0 = rng.next_u64();
    const std::uint64_t r1 = rng.next_u64();
    const auto pos = static_cast<std::int64_t>(fm.mod(r0));
    const std::int64_t radius =
        it < table_len ? radii[static_cast<std::size_t>(it)] : radius_tail;
    // randi(-pos, slots - pos) == -pos + (u64 draw) % slots.
    const std::int64_t draw = static_cast<std::int64_t>(fm.mod(r1)) - pos;
    // radius · draw in Q16.16, truncated toward zero like the double
    // product it replaces, which was exact (|radius · draw| < 2^16 · slots
    // < 2^53). With radius <= 1 the offset lies between 0 and draw, so
    // pos + offset stays in [0, slots).
    std::int64_t pos_new = pos + radius * draw / Fixed::kOne;
    const CoreId ca = core_of(pos);
    CoreId cb = core_of(pos_new);
    // Once the radius collapses, the scaled offset truncates to (nearly)
    // zero and every proposal would degenerate into a same-slot or
    // same-core no-op, silently ending the search. Fall back to a uniform
    // draw so each iteration still proposes a real move — slot indices
    // carry no topology, so this preserves Algorithm 1's semantics. A
    // same-slot proposal is a same-core one.
    if (cb == ca) pos_new = static_cast<std::int64_t>(fm.mod(rng.next_u64()));
    cb = core_of(pos_new);

    const std::int32_t ta = psi[static_cast<std::size_t>(pos)];
    const std::int32_t tb = psi[static_cast<std::size_t>(pos_new)];
    // No-op: the fallback stayed on the same core too, or both slots are
    // empty (both sign bits set).
    if (cb == ca || (ta & tb) < 0) continue;
    if (affinity != nullptr) {
      if (ta >= 0 && !(*affinity)[static_cast<std::size_t>(ta)]
                                 [static_cast<std::size_t>(cb)]) {
        continue;  // affinity forbids
      }
      if (tb >= 0 && !(*affinity)[static_cast<std::size_t>(tb)]
                                 [static_cast<std::size_t>(ca)]) {
        continue;
      }
    }

    // --- Apply tentatively, evaluating only the two affected cores ---
    if (ta >= 0) {
      state.remove_thread(static_cast<std::size_t>(ta), ca);
      state.add_thread(static_cast<std::size_t>(ta), cb);
    }
    if (tb >= 0) {
      state.remove_thread(static_cast<std::size_t>(tb), cb);
      state.add_thread(static_cast<std::size_t>(tb), ca);
    }
    const double diff = state.refresh_cores(ca, cb);

    bool take = diff > 0;
    if (!take) {
      if (!accept_frozen && accept_decays <= it) {
        do {  // catch `accept` up to this iteration
          const double next = accept * kSaAcceptDecay;
          accept_frozen = std::bit_cast<std::uint64_t>(next) ==
                          std::bit_cast<std::uint64_t>(accept);
          accept = next;
        } while (++accept_decays <= it && !accept_frozen);
        reject_below = reject_bound(accept);
      }
      // probability = e^(diff/accept) computed in Q16.16; accepted when
      // randi() mod round(1/probability) == 0, as in the paper's listing.
      // Below a ratio of -12 the probability is exactly 0 and no number is
      // drawn: every Q16.16 magnitude in [12, 15.9] sets the e^-8 and e^-4
      // bits, and 22·1202 >> 16 == 0. So such a move is rejected without
      // the division and the exp.
      if (!(diff < reject_below)) {
        const double ratio = std::max(-15.9, diff / accept);
        const Fixed prob = fixed_exp_neg(Fixed::saturating_from_double(ratio));
        if (prob.raw() > 0) {
          const std::uint32_t inv = static_cast<std::uint32_t>(
              std::max<std::int64_t>(1, Fixed::kOne / prob.raw()));
          take = (rng.randi() % inv) == 0;
        }
      }
    }

    if (take) {
      std::swap(psi[static_cast<std::size_t>(pos)],
                psi[static_cast<std::size_t>(pos_new)]);
      if (ta >= 0) current[static_cast<std::size_t>(ta)] = cb;
      if (tb >= 0) current[static_cast<std::size_t>(tb)] = ca;
      current_obj += diff;
      if (diff > 0) {
        ++best.improved;
      } else {
        ++best.accepted_worse;
      }
      // Drift resync: `current_obj += diff` and the state's running
      // accumulators drift in the last bits over tens of thousands of
      // incremental updates; periodically recompute both from the current
      // allocation so long anneals stay anchored to the true objective.
      if (++accepted_since_resync >= kObjectiveResyncInterval) {
        accepted_since_resync = 0;
        state.rebuild(current);
#ifndef NDEBUG
        assert(std::abs(state.total() - current_obj) <=
               kObjectiveDriftBound *
                   std::max(1.0, std::abs(state.total())));
#endif
        current_obj = state.total();
        ++best.resyncs;
      }
      if (current_obj > best.objective) {
        best.objective = current_obj;
        best.allocation = current;
      }
    } else {
      // Revert the tentative sums.
      if (ta >= 0) {
        state.remove_thread(static_cast<std::size_t>(ta), cb);
        state.add_thread(static_cast<std::size_t>(ta), ca);
      }
      if (tb >= 0) {
        state.remove_thread(static_cast<std::size_t>(tb), ca);
        state.add_thread(static_cast<std::size_t>(tb), cb);
      }
      state.refresh_cores(ca, cb);
    }
  }

  best.iterations = iters;
  best.host_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return best;
}

SaResult SaOptimizer::optimize(
    const Matrix& s, const Matrix& p, const BalanceObjective& objective,
    std::vector<CoreId> initial,
    const std::vector<std::bitset<kMaxCores>>* affinity,
    const std::vector<double>* demand_gips, const std::vector<CoreId>* cores,
    const std::vector<std::size_t>* columns) {
  const std::size_t m = s.rows();
  const auto n = static_cast<std::int64_t>(
      columns != nullptr ? columns->size() : s.cols());
  if (m == 0 || n == 0) {
    throw std::invalid_argument("SaOptimizer: empty problem");
  }
  if (p.rows() != m || p.cols() != s.cols() || initial.size() != m) {
    throw std::invalid_argument("SaOptimizer: shape mismatch");
  }
  if (columns != nullptr) {
    for (const std::size_t col : *columns) {
      if (col >= s.cols()) {
        throw std::invalid_argument("SaOptimizer: column map out of range");
      }
    }
  }
  if (demand_gips && demand_gips->size() != m) {
    throw std::invalid_argument("SaOptimizer: demand size mismatch");
  }
  if (affinity && affinity->size() != m) {
    throw std::invalid_argument("SaOptimizer: affinity size mismatch");
  }
  if (affinity && n > kMaxCores) {
    // The loop reads affinity bits unchecked; a mask has kMaxCores bits.
    throw std::invalid_argument("SaOptimizer: more cores than an affinity "
                                "mask holds");
  }
  if (cores && cores->size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("SaOptimizer: core map size mismatch");
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (initial[i] < 0 || initial[i] >= n) {
      throw std::invalid_argument("SaOptimizer: bad initial allocation");
    }
  }

  // Devirtualize: dispatch once per call to the kernel instantiated for the
  // built-in objective's final class, so every core_term / core_fraction /
  // fractional call inlines. Custom objectives take the generic kernel —
  // identical semantics through virtual dispatch.
  SaResult result = [&]() -> SaResult {
    if (const auto* ee =
            dynamic_cast<const EnergyEfficiencyObjective*>(&objective)) {
      return run_annealing(s, p, *ee, std::move(initial), affinity,
                           demand_gips, cores, columns);
    }
    if (const auto* ge =
            dynamic_cast<const GlobalEfficiencyObjective*>(&objective)) {
      return run_annealing(s, p, *ge, std::move(initial), affinity,
                           demand_gips, cores, columns);
    }
    return run_annealing(s, p, objective, std::move(initial), affinity,
                         demand_gips, cores, columns);
  }();
  if (obs_ != nullptr) {
    auto& m = obs_->metrics();
    m.counter("sa.calls").add();
    m.counter("sa.iterations").add(static_cast<std::uint64_t>(
        std::max(result.iterations, 0)));
    m.counter("sa.accepted_worse").add(static_cast<std::uint64_t>(
        std::max(result.accepted_worse, 0)));
    m.counter("sa.improved").add(static_cast<std::uint64_t>(
        std::max(result.improved, 0)));
    m.counter("sa.resyncs").add(static_cast<std::uint64_t>(
        std::max(result.resyncs, 0)));
    m.histogram("sa.host_ns").record(static_cast<std::uint64_t>(
        std::max<TimeNs>(result.host_ns, 0)));
  }
  return result;
}

SaResult exhaustive_optimum(const Matrix& s, const Matrix& p,
                            const BalanceObjective& objective) {
  const std::size_t m = s.rows();
  const std::size_t n = s.cols();
  if (m == 0 || n == 0) throw std::invalid_argument("exhaustive: empty");
  double states = 1;
  for (std::size_t i = 0; i < m; ++i) {
    states *= static_cast<double>(n);
    if (states > 16e6) {
      throw std::invalid_argument("exhaustive_optimum: too many states");
    }
  }
  const auto total = static_cast<std::uint64_t>(states);

  std::vector<CoreId> alloc(m, 0);
  ObjectiveScratch scratch;
  ObjectiveState<BalanceObjective> state(scratch, s, p, objective, alloc);
  SaResult best;
  best.allocation = alloc;
  best.objective = state.total();
  best.initial_objective = state.total();

  if (n > 1) {
    // Mixed-radix reflected Gray-code enumeration (Knuth 7.2.1.1, Algorithm
    // H with focus pointers): successive allocations differ in exactly one
    // thread's core, by ±1, so each of the n^m states costs one incremental
    // remove/add/refresh instead of a full ObjectiveState rebuild.
    std::vector<int> dir(m, 1);
    std::vector<std::size_t> focus(m + 1);
    for (std::size_t j = 0; j <= m; ++j) focus[j] = j;
    std::uint64_t visited = 1;
    while (true) {
      const std::size_t j = focus[0];
      focus[0] = 0;
      if (j == m) break;
      const CoreId from = alloc[j];
      const CoreId to = static_cast<CoreId>(from + dir[j]);
      alloc[j] = to;
      if (to == 0 || to == static_cast<CoreId>(n - 1)) {
        dir[j] = -dir[j];
        focus[j] = focus[j + 1];
        focus[j + 1] = j + 1;
      }
      state.remove_thread(j, from);
      state.add_thread(j, to);
      state.refresh_cores(from, to);
      ++visited;
      // Same drift control as the annealer: re-anchor the incremental
      // accumulators periodically over the (up to 16M-step) walk.
      if ((visited & 0xffffULL) == 0) state.rebuild(alloc);
      if (state.total() > best.objective) {
        best.objective = state.total();
        best.allocation = alloc;
      }
    }
  }

  best.iterations = static_cast<int>(std::min<std::uint64_t>(
      total, static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
  return best;
}

}  // namespace sb::core
