// Balancing objectives (Eq. 10/11 and alternatives).
//
// J = Σ_j ω_j · term_j where term_j is computed from the per-core sums of
// the assigned threads' predicted throughput and power. The default,
// EnergyEfficiencyObjective, is the paper's J_E = Σ ω_j IPS_j / P_j; note
// that with equal time sharing the per-thread averaging of Eqs. 6/7 cancels
// in the ratio, so IPS_j / P_j = (Σ ips_ij) / (Σ p_ij) over core j's set.
//
// The interface is deliberately tiny so downstream users can plug a custom
// goal into SmartBalance (see examples/custom_objective.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <memory>
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

/// Identifies the built-in objectives so the optimizer can dispatch its
/// annealing loop to a kernel specialized (devirtualized) for the concrete
/// type. User-defined objectives report kCustom and run through the generic
/// virtual-dispatch kernel — same semantics, slightly slower inner loop.
enum class ObjectiveKind {
  kCustom = 0,
  kEnergyEfficiency,
  kThroughput,
  kEdp,
  kGlobalEfficiency,
};

class BalanceObjective {
 public:
  virtual ~BalanceObjective() = default;

  /// Built-in objectives override this; custom objectives keep kCustom.
  virtual ObjectiveKind kind() const { return ObjectiveKind::kCustom; }

  /// Additive objectives: J = Σ_j core_term(core j). This is the paper's
  /// Eq. 11 family; `core` identifies the column for per-core weights ω_j.
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

  /// Returns an objective equivalent to this one evaluated on the
  /// sub-platform formed by `cores`: column j of the sub-problem is physical
  /// core cores[j]. Used by the sharded balancer so per-core weights keep
  /// pointing at the right physical core inside a shard-local SA pass. The
  /// default implementation wraps *this* (which must outlive the returned
  /// object) with an index remap and reports kCustom; built-in objectives
  /// override with kind-preserving value clones so the optimizer's
  /// devirtualized kernels still apply inside shards.
  virtual std::unique_ptr<BalanceObjective> restrict_to_cores(
      const std::vector<CoreId>& cores) const;
};

/// The paper's J_E: per-core energy efficiency (GIPS per watt), weighted.
/// Eq. 11's ω_j are "ideally set to 1, but can be tuned to give preference
/// to certain cores or core types" — pass per-core weights for that.
class EnergyEfficiencyObjective final : public BalanceObjective {
 public:
  explicit EnergyEfficiencyObjective(double weight = 1.0) : weight_(weight) {}
  /// Per-core ω_j (indexed by CoreId); cores beyond the vector get ω = 1.
  explicit EnergyEfficiencyObjective(std::vector<double> core_weights)
      : core_weights_(std::move(core_weights)) {}

  double core_term(const CoreSums& s, CoreId core) const override {
    if (s.nthreads == 0 || s.watts <= 0) return 0.0;
    const double w =
        core >= 0 && static_cast<std::size_t>(core) < core_weights_.size()
            ? core_weights_[static_cast<std::size_t>(core)]
            : weight_;
    return w * s.gips / s.watts;
  }

  ObjectiveKind kind() const override {
    return ObjectiveKind::kEnergyEfficiency;
  }
  std::string name() const override { return "ips_per_watt"; }

  std::unique_ptr<BalanceObjective> restrict_to_cores(
      const std::vector<CoreId>& cores) const override {
    std::vector<double> w(cores.size(), weight_);
    for (std::size_t j = 0; j < cores.size(); ++j) {
      const CoreId c = cores[j];
      if (c >= 0 && static_cast<std::size_t>(c) < core_weights_.size()) {
        w[j] = core_weights_[static_cast<std::size_t>(c)];
      }
    }
    return std::make_unique<EnergyEfficiencyObjective>(std::move(w));
  }

 private:
  double weight_ = 1.0;
  std::vector<double> core_weights_;
};

/// Pure throughput: the core's time-shared IPS (average of its threads).
class ThroughputObjective final : public BalanceObjective {
 public:
  double core_term(const CoreSums& s, CoreId /*core*/) const override {
    if (s.nthreads == 0) return 0.0;
    return s.gips / s.nthreads;
  }
  ObjectiveKind kind() const override { return ObjectiveKind::kThroughput; }
  std::string name() const override { return "throughput"; }
  std::unique_ptr<BalanceObjective> restrict_to_cores(
      const std::vector<CoreId>&) const override {
    return std::make_unique<ThroughputObjective>();
  }
};

/// Energy-delay-product flavour: throughput² per watt, biasing toward
/// performance while still power-aware.
class EdpObjective final : public BalanceObjective {
 public:
  double core_term(const CoreSums& s, CoreId /*core*/) const override {
    if (s.nthreads == 0 || s.watts <= 0) return 0.0;
    const double ips = s.gips / s.nthreads;
    return ips * ips / (s.watts / s.nthreads);
  }
  ObjectiveKind kind() const override { return ObjectiveKind::kEdp; }
  std::string name() const override { return "edp"; }
  std::unique_ptr<BalanceObjective> restrict_to_cores(
      const std::vector<CoreId>&) const override {
    return std::make_unique<EdpObjective>();
  }
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

  ObjectiveKind kind() const override {
    return ObjectiveKind::kGlobalEfficiency;
  }
  std::string name() const override { return "global_ips_per_watt"; }

  std::unique_ptr<BalanceObjective> restrict_to_cores(
      const std::vector<CoreId>& cores) const override {
    std::vector<double> sleep(cores.size(), 0.0);
    for (std::size_t j = 0; j < cores.size(); ++j) {
      const CoreId c = cores[j];
      if (c >= 0 && static_cast<std::size_t>(c) < sleep_w_.size()) {
        sleep[j] = sleep_w_[static_cast<std::size_t>(c)];
      }
    }
    return std::make_unique<GlobalEfficiencyObjective>(std::move(sleep));
  }

 private:
  std::vector<double> sleep_w_;
};

std::unique_ptr<BalanceObjective> make_energy_efficiency_objective();

}  // namespace sb::core
