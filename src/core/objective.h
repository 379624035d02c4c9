// Balancing objectives (Eq. 10/11).
//
// J = Σ_j ω_j · term_j where term_j is computed from the per-core sums of
// the assigned threads' predicted throughput and power. Two objectives are
// built in: EnergyEfficiencyObjective, the paper's J_E = Σ ω_j IPS_j / P_j
// (note that with equal time sharing the per-thread averaging of Eqs. 6/7
// cancels in the ratio, so IPS_j / P_j = (Σ ips_ij) / (Σ p_ij) over core
// j's set), and GlobalEfficiencyObjective, the whole chip's IPS/W. The
// optimizer anneals both through kernels specialized for their final
// classes.
//
// The interface is deliberately tiny so downstream users can plug a custom
// goal into SmartBalance (see examples/custom_objective.cpp); a custom
// objective runs through the generic virtual-dispatch kernel with the same
// semantics.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/types.h"

namespace sb::core {

/// Occupancy u_ij of a thread on a core: CPU-bound threads (negative
/// demand) and cores with no predicted capacity take a full share; a
/// duty-cycled thread occupies the fraction of the core needed to serve
/// its demanded GIPS at the core's predicted speed `cap`, kept in
/// [0.02, 1].
inline double occupancy(double demand, double cap) {
  return demand >= 0 && cap > 0 ? std::clamp(demand / cap, 0.02, 1.0) : 1.0;
}

/// The per-core inputs an objective sees: occupancy-weighted sums over the
/// threads assigned to the core.
struct CoreSums {
  double gips = 0;    // Σ u_ij · s_ij  (predicted served throughput)
  double watts = 0;   // Σ u_ij · p_ij  (predicted busy power)
  double load = 0;    // Σ u_ij         (core occupancy; >1 = oversubscribed)
  int nthreads = 0;

  /// Adds (removes) a thread with occupancy `u`, throughput `s` and power
  /// `p` on this core.
  void add(double u, double s, double p) {
    gips += u * s;
    watts += u * p;
    load += u;
    ++nthreads;
  }
  void remove(double u, double s, double p) {
    gips -= u * s;
    watts -= u * p;
    load -= u;
    --nthreads;
  }
};

/// A balancing goal. `core` is always a physical core id, also when the
/// optimizer anneals a shard's sub-problem, so per-core parameters index by
/// it directly. core_term and core_fraction must be safe to call
/// concurrently: with K > 1 shards the balancer's workers share one
/// objective by const reference.
class BalanceObjective {
 public:
  virtual ~BalanceObjective() = default;

  /// Additive objectives: J = Σ_j core_term(core j). This is the paper's
  /// Eq. 11 family; `core` selects per-core weights ω_j.
  virtual double core_term(const CoreSums& sums, CoreId core) const = 0;

  /// Fractional objectives: J = (Σ_j num_j) / (Σ_j den_j). Overriding
  /// fractional() to true switches the optimizer to this form; core_term is
  /// then unused.
  virtual bool fractional() const { return false; }
  virtual std::array<double, 2> core_fraction(const CoreSums& /*sums*/,
                                              CoreId /*core*/) const {
    return {0.0, 0.0};
  }

  virtual std::string name() const = 0;

  /// J of a whole allocation from its per-core sums (entry j is core j):
  /// Σ core_term, or Σnum / Σden for fractional objectives, summed in core
  /// order.
  double evaluate(const std::vector<CoreSums>& sums) const;
};

/// The paper's J_E: per-core energy efficiency (GIPS per watt), weighted.
/// Eq. 11's ω_j are "ideally set to 1, but can be tuned to give preference
/// to certain cores or core types" — pass per-core weights for that.
class EnergyEfficiencyObjective final : public BalanceObjective {
 public:
  /// Per-core ω_j (indexed by CoreId); cores beyond the vector get ω = 1.
  explicit EnergyEfficiencyObjective(std::vector<double> core_weights = {})
      : core_weights_(std::move(core_weights)) {}

  double core_term(const CoreSums& s, CoreId core) const override {
    if (s.nthreads == 0 || s.watts <= 0) return 0.0;
    const double w =
        core >= 0 && static_cast<std::size_t>(core) < core_weights_.size()
            ? core_weights_[static_cast<std::size_t>(core)]
            : 1.0;
    return w * s.gips / s.watts;
  }

  std::string name() const override { return "ips_per_watt"; }

 private:
  std::vector<double> core_weights_;
};

/// Global platform energy efficiency: J = total predicted IPS / total
/// predicted power, where each core contributes its occupancy-weighted
/// busy power plus the sleep power of its unloaded fraction.
///
/// Rationale (DESIGN.md §5): Eq. 11's sum-of-ratios is invariant to how
/// many threads share a core — (Σu·s)/(Σu·p) does not change when similar
/// threads pile up — so it cannot distinguish allocations that differ only
/// in load distribution, while the metric the paper *reports*
/// (throughput/Watt of the whole chip) very much does. This objective
/// optimizes that metric directly and is the library default; Eq. 11 is
/// available verbatim as EnergyEfficiencyObjective.
class GlobalEfficiencyObjective final : public BalanceObjective {
 public:
  /// `core_sleep_w[j]` = sleep-state power of core j (charged for the
  /// fraction of the epoch the core has nothing to run).
  explicit GlobalEfficiencyObjective(std::vector<double> core_sleep_w)
      : sleep_w_(std::move(core_sleep_w)) {}

  bool fractional() const override { return true; }

  double core_term(const CoreSums&, CoreId) const override { return 0.0; }

  std::array<double, 2> core_fraction(const CoreSums& s,
                                      CoreId core) const override {
    const double idle_fraction =
        s.load >= 1.0 ? 0.0 : 1.0 - (s.nthreads > 0 ? s.load : 0.0);
    const double sleep =
        core >= 0 && static_cast<std::size_t>(core) < sleep_w_.size()
            ? sleep_w_[static_cast<std::size_t>(core)]
            : 0.0;
    // Oversubscribed cores saturate: served throughput (and busy power)
    // scale down to capacity.
    const double scale = s.load > 1.0 ? 1.0 / s.load : 1.0;
    return {s.gips * scale, s.watts * scale + sleep * idle_fraction};
  }

  std::string name() const override { return "global_ips_per_watt"; }

 private:
  std::vector<double> sleep_w_;
};

}  // namespace sb::core
