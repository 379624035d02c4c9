#include "core/objective.h"

namespace sb::core {

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

}  // namespace sb::core
