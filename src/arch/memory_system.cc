#include "arch/memory_system.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sb::arch {
namespace {

// Units of the saturation certificate's lower bound: 2^-40 GB/s.
constexpr double kUnitsPerGbps = 0x1p40;
// Per-slot cap: kMaxCores slots of 2^52 units sum to at most 2^62, inside
// int64. Both that and the 1.2e-13 summation bound assume n <= 1024.
constexpr double kUnitCap = 0x1p52;
static_assert(kMaxCores <= 1024);

// A slot truncated toward zero in units, so that units·2^-40 <= gbps. The
// scale is a multiply, not std::ldexp, which is a library call.
std::int64_t lower_units(double gbps) {
  const double scaled = gbps * kUnitsPerGbps;
  return scaled < kUnitCap ? static_cast<std::int64_t>(scaled)
                           : static_cast<std::int64_t>(kUnitCap);
}

}  // namespace

SharedBus::SharedBus(int num_cores, Config config) : config_(config) {
  if (num_cores <= 0 || num_cores > kMaxCores) {
    throw std::invalid_argument("SharedBus: core count outside [1, kMaxCores]");
  }
  const Config& c = config_;
  for (const double v : {c.base_latency_ns, c.bandwidth_gbps,
                         c.contention_exponent, c.max_inflation,
                         c.line_bytes}) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("SharedBus: non-finite config field");
    }
  }
  if (c.bandwidth_gbps <= 0 || c.base_latency_ns <= 0 ||
      c.contention_exponent <= 0 || c.line_bytes <= 0 ||
      c.max_inflation < 1.0) {
    throw std::invalid_argument("SharedBus: bad config");
  }
  core_bw_gbps_.assign(static_cast<std::size_t>(num_cores), 0.0);
  // The sequential double sum loses less than 1.2e-13 relative, so a 1e-9
  // margin over the exact bound covers it (and the rounding of this line).
  const double threshold =
      std::ceil(c.bandwidth_gbps * kUnitsPerGbps * (1.0 + 1e-9));
  saturation_units_ = threshold < 0x1p63
                          ? static_cast<std::int64_t>(threshold)
                          : std::numeric_limits<std::int64_t>::max();
  saturated_inflation_ = inflation_at(1.0);
}

void SharedBus::record_traffic(CoreId c, double misses, TimeNs window) {
  if (c < 0 || static_cast<std::size_t>(c) >= core_bw_gbps_.size()) {
    throw std::out_of_range("SharedBus: bad core");
  }
  if (!std::isfinite(misses) || misses < 0) {
    throw std::invalid_argument(
        "SharedBus: misses must be finite and non-negative");
  }
  if (window <= 0) return;
  const double bytes = misses * config_.line_bytes;
  const double gbps = bytes / static_cast<double>(window);  // B/ns == GB/s
  // Exponential smoothing keeps the contention estimate stable across the
  // fine-grained scheduling segments that report here.
  constexpr double kAlpha = 0.3;
  auto& slot = core_bw_gbps_[static_cast<std::size_t>(c)];
  const std::int64_t before = lower_units(slot);
  slot = (1.0 - kAlpha) * slot + kAlpha * gbps;
  bw_units_ = bw_units_ - before + lower_units(slot);
}

double SharedBus::summed_utilization() const {
  double total = 0.0;
  for (double bw : core_bw_gbps_) total += bw;
  return std::clamp(total / config_.bandwidth_gbps, 0.0, 1.0);
}

double SharedBus::inflation_at(double utilization) const {
  const double f = 1.0 + (config_.max_inflation - 1.0) *
                             std::pow(utilization, config_.contention_exponent);
  return std::min(f, config_.max_inflation);
}

void SharedBus::reset() {
  std::fill(core_bw_gbps_.begin(), core_bw_gbps_.end(), 0.0);
  bw_units_ = 0;
}

}  // namespace sb::arch
