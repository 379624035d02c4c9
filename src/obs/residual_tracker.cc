#include "obs/residual_tracker.h"

#include <cmath>

namespace sb::obs {

double relative_residual(double observed, double predicted) {
  if (!(std::abs(observed) > 1e-12)) return 0.0;
  return (observed - predicted) / observed;
}

bool ResidualTracker::update(std::int32_t src_type, std::int32_t dst_type,
                             double gips_err, double power_err) {
  Pair& t = pairs_[{src_type, dst_type}];
  ++t.joins;
  const double a = alpha_;
  t.ewma_gips = (1.0 - a) * t.ewma_gips + a * std::abs(gips_err);
  t.ewma_power = (1.0 - a) * t.ewma_power + a * std::abs(power_err);
  t.sewma_gips = (1.0 - a) * t.sewma_gips + a * gips_err;
  t.sewma_power = (1.0 - a) * t.sewma_power + a * power_err;
  const bool over = t.ewma_gips > threshold_ || t.ewma_power > threshold_;
  if (over && !t.active && t.joins >= min_joins_) {
    t.active = true;
    return true;
  }
  if (!over && t.active) t.active = false;  // recovery: re-arm
  return false;
}

const ResidualTracker::Pair* ResidualTracker::find(std::int32_t src_type,
                                                   std::int32_t dst_type) const {
  const auto it = pairs_.find({src_type, dst_type});
  return it == pairs_.end() ? nullptr : &it->second;
}

bool ResidualTracker::any_active() const {
  for (const auto& [key, t] : pairs_) {
    if (t.active) return true;
  }
  return false;
}

}  // namespace sb::obs
