#include "core/features.h"

#include <cmath>

namespace sb::core {

const std::array<std::string, kNumFeatures>& feature_names() {
  static const std::array<std::string, kNumFeatures> kNames = {
      "FR",    "mr_$i",   "mr_$d",   "I_msh",    "I_bsh",
      "mr_b",  "mr_itlb", "mr_dtlb", "ipc_src",  "const"};
  return kNames;
}

std::array<double, kNumFeatures> make_features(const ThreadObservation& obs,
                                               double freq_ratio) {
  return {freq_ratio, obs.mr_l1i,  obs.mr_l1d, obs.imsh, obs.ibsh,
          obs.mr_branch, obs.mr_itlb, obs.mr_dtlb, obs.ipc, 1.0};
}

void sanitize_observation(ThreadObservation& o) {
  auto fin = [](double& v) {
    if (!std::isfinite(v)) v = 0.0;
  };
  fin(o.ipc);
  fin(o.ips);
  fin(o.freq_mhz);
  fin(o.power_w);
  fin(o.util);
  fin(o.imsh);
  fin(o.ibsh);
  fin(o.mr_branch);
  fin(o.mr_l1i);
  fin(o.mr_l1d);
  fin(o.mr_itlb);
  fin(o.mr_dtlb);
}

PlausibilityVerdict check_plausibility(const ThreadObservation& o,
                                       const perf::HpcCounters& c) {
  // The physical envelope: no real core retires more than ~8 IPC, no miss
  // ratio or instruction share exceeds 1 (25% slack for counter noise), no
  // mobile core draws half a kilowatt, and no clock runs past 8 GHz.
  constexpr double kIpcMax = 16.0;
  constexpr double kRatioMax = 1.25;
  constexpr double kPowerMaxW = 512.0;
  constexpr double kMaxGhz = 8.0;
  // A delta at the 32-bit register ceiling is a wraparound artefact.
  if (c.any_field_at_or_above(perf::HpcCounters::k32BitCeiling)) {
    return PlausibilityVerdict::kImplausible;
  }
  // No clock ticks faster than kMaxGhz: cycles are bounded by runtime.
  if (o.runtime > 0 &&
      static_cast<double>(c.active_cycles()) >
          static_cast<double>(o.runtime) * kMaxGhz) {
    return PlausibilityVerdict::kImplausible;
  }
  if (o.ipc > kIpcMax || o.power_w > kPowerMaxW) {
    return PlausibilityVerdict::kImplausible;
  }
  for (double r : {o.imsh, o.ibsh, o.mr_branch, o.mr_l1i, o.mr_l1d, o.mr_itlb,
                   o.mr_dtlb}) {
    if (r > kRatioMax) return PlausibilityVerdict::kImplausible;
  }
  return PlausibilityVerdict::kPlausible;
}

}  // namespace sb::core
