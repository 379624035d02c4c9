// Shared-bus main-memory model.
//
// The paper's platform connects all cores to main memory through a shared
// bus (§5). We model bus contention analytically: each core reports its
// recent miss bandwidth; the effective memory latency seen by every core is
// the base DRAM latency inflated by a convex function of total bus
// utilization. This couples cores (a Huge core thrashing memory slows the
// Small cores) without needing per-transaction simulation.
//
// Saturation certificate. Every dispatch reads the latency, and on a large
// memory-bound platform almost every read finds the bus saturated, where
// utilization clamps to exactly 1.0 whatever the low bits of the total. So
// beside the per-core doubles the bus keeps an exact int64 lower bound of
// their sum, in units of 2^-40 GB/s: each slot truncated toward zero and
// capped at 2^52 units (so kMaxCores slots sum to at most 2^62), updated
// per report by one integer subtract and one add, so it never drifts. The
// left-to-right double sum of n <= kMaxCores non-negative terms is at
// least (1 - (n-1)·2^-53) > (1 - 1.2e-13) times the exact sum, so once the
// bound reaches bandwidth·2^40·(1 + 1e-9) units the double total is
// provably at least the bandwidth and the clamp yields 1.0. Above that
// threshold utilization() and inflation() return their values at u = 1.0,
// the latter computed once at construction by the same expression; below
// it every read runs the sequential sum, pow and min. Either way each
// result has the bits of the plain formula. A bandwidth whose threshold
// does not fit in int64 is never certified.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sb::arch {

class SharedBus {
 public:
  struct Config {
    double base_latency_ns = 80.0;   // unloaded DRAM round trip
    double bandwidth_gbps = 12.8;    // saturation bandwidth
    double contention_exponent = 2.0;
    double max_inflation = 4.0;      // latency factor ceiling at saturation
    double line_bytes = 64.0;        // bytes transferred per L2 miss
  };

  explicit SharedBus(int num_cores) : SharedBus(num_cores, Config()) {}
  /// Throws std::invalid_argument unless num_cores is in [1, kMaxCores],
  /// every Config field is finite, the latency, bandwidth, exponent and
  /// line size are positive and max_inflation >= 1.
  SharedBus(int num_cores, Config config);

  /// Records that core `c` generated `misses` memory transactions over the
  /// last `window` of simulated time (a scheduling segment). Throws
  /// std::invalid_argument for negative or non-finite `misses`.
  void record_traffic(CoreId c, double misses, TimeNs window);

  /// Utilization in [0,1]: total demanded bandwidth / capacity (clamped).
  double utilization() const {
    return saturated() ? 1.0 : summed_utilization();
  }

  /// Effective memory latency including contention, in nanoseconds.
  double effective_latency_ns() const {
    return config_.base_latency_ns * inflation();
  }

  /// Latency inflation factor in [1, max_inflation].
  double inflation() const {
    return saturated() ? saturated_inflation_
                       : inflation_at(summed_utilization());
  }

  const Config& config() const { return config_; }

  /// Forgets traffic history (e.g., between experiment repetitions).
  void reset();

 private:
  bool saturated() const { return bw_units_ >= saturation_units_; }
  double summed_utilization() const;
  double inflation_at(double utilization) const;

  Config config_;
  std::vector<double> core_bw_gbps_;  // exponentially averaged per core
  std::int64_t bw_units_ = 0;  // Σ of each slot truncated to 2^-40 GB/s
  std::int64_t saturation_units_ = 0;  // certificate threshold
  double saturated_inflation_ = 0.0;   // inflation_at(1.0)
};

}  // namespace sb::arch
