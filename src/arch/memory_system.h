// Shared-bus main-memory model.
//
// The paper's platform connects all cores to main memory through a shared
// bus (§5). We model bus contention analytically: each core reports its
// recent miss bandwidth; the effective memory latency seen by every core is
// the base DRAM latency inflated by a convex function of total bus
// utilization. This couples cores (a Huge core thrashing memory slows the
// Small cores) without needing per-transaction simulation.
#pragma once

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
  /// Throws std::invalid_argument unless every Config field is finite,
  /// the latency, bandwidth, exponent and line size are positive and
  /// max_inflation >= 1.
  SharedBus(int num_cores, Config config);

  /// Records that core `c` generated `misses` memory transactions over the
  /// last `window` of simulated time (a scheduling segment). Throws
  /// std::invalid_argument for negative or non-finite `misses`.
  void record_traffic(CoreId c, double misses, TimeNs window);

  /// Utilization in [0,1]: total demanded bandwidth / capacity (clamped).
  double utilization() const;

  /// Effective memory latency including contention, in nanoseconds.
  double effective_latency_ns() const;

  /// Latency inflation factor in [1, max_inflation].
  double inflation() const;

  const Config& config() const { return config_; }

  /// Forgets traffic history (e.g., between experiment repetitions).
  void reset();

 private:
  Config config_;
  std::vector<double> core_bw_gbps_;  // exponentially averaged per core
};

}  // namespace sb::arch
