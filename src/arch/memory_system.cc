#include "arch/memory_system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sb::arch {

SharedBus::SharedBus(int num_cores, Config config)
    : config_(config), core_bw_gbps_(static_cast<std::size_t>(num_cores), 0.0) {
  if (num_cores <= 0) throw std::invalid_argument("SharedBus: no cores");
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
  slot = (1.0 - kAlpha) * slot + kAlpha * gbps;
}

double SharedBus::utilization() const {
  double total = 0.0;
  for (double bw : core_bw_gbps_) total += bw;
  return std::clamp(total / config_.bandwidth_gbps, 0.0, 1.0);
}

double SharedBus::inflation() const {
  const double u = utilization();
  const double f = 1.0 + (config_.max_inflation - 1.0) *
                             std::pow(u, config_.contention_exponent);
  return std::min(f, config_.max_inflation);
}

double SharedBus::effective_latency_ns() const {
  return config_.base_latency_ns * inflation();
}

void SharedBus::reset() {
  std::fill(core_bw_gbps_.begin(), core_bw_gbps_.end(), 0.0);
}

}  // namespace sb::arch
