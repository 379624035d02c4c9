#include "core/objective.h"

#include <utility>

namespace sb::core {
namespace {

/// Generic column remap used by the default restrict_to_cores: forwards
/// every query to the parent objective with the physical CoreId. Reports
/// kCustom, so shard-local SA falls back to the virtual-dispatch kernel —
/// identical semantics, marginally slower inner loop.
class RestrictedObjective : public BalanceObjective {
 public:
  RestrictedObjective(const BalanceObjective& base, std::vector<CoreId> cores)
      : base_(base), cores_(std::move(cores)) {}

  double core_term(const CoreSums& s, CoreId core) const override {
    return base_.core_term(s, remap(core));
  }
  bool fractional() const override { return base_.fractional(); }
  std::array<double, 2> core_fraction(const CoreSums& s,
                                      CoreId core) const override {
    return base_.core_fraction(s, remap(core));
  }
  std::string name() const override { return base_.name(); }

 private:
  CoreId remap(CoreId c) const {
    return c >= 0 && static_cast<std::size_t>(c) < cores_.size()
               ? cores_[static_cast<std::size_t>(c)]
               : c;
  }

  const BalanceObjective& base_;
  std::vector<CoreId> cores_;
};

}  // namespace

double BalanceObjective::evaluate(const std::vector<CoreSums>& sums) const {
  if (fractional()) {
    double num = 0, den = 0;
    for (std::size_t j = 0; j < sums.size(); ++j) {
      const auto f = core_fraction(sums[j], static_cast<CoreId>(j));
      num += f[0];
      den += f[1];
    }
    return den > 0 ? num / den : 0.0;
  }
  double total = 0;
  for (std::size_t j = 0; j < sums.size(); ++j) {
    total += core_term(sums[j], static_cast<CoreId>(j));
  }
  return total;
}

std::unique_ptr<BalanceObjective> BalanceObjective::restrict_to_cores(
    const std::vector<CoreId>& cores) const {
  return std::make_unique<RestrictedObjective>(*this, cores);
}

std::unique_ptr<BalanceObjective> make_energy_efficiency_objective() {
  return std::make_unique<EnergyEfficiencyObjective>();
}

}  // namespace sb::core
