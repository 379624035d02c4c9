// The baseline: vanilla Linux CFS load balancing.
//
// rebalance_domains() in the stock kernel equalizes *load* (Σ task weights)
// across cores, completely blind to core heterogeneity — exactly the
// behaviour Fig. 1(a) of the paper criticizes: "evenly distributes the
// workload among cores even if the cores have distinct processing
// capabilities". Each pass pulls queued tasks from the busiest core to the
// least-loaded core until their loads are within one average task weight,
// subject to affinity. It fires every CFS period (6 ms), mirroring the
// periodic softirq balancing cadence.
#pragma once

#include <cstdint>

#include "os/load_balancer.h"

namespace sb::os {

class VanillaBalancer final : public LoadBalancer {
 public:
  /// Fires once per CFS period (kSchedLatency).
  TimeNs interval() const override;
  void on_balance(Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "vanilla"; }
  std::uint64_t passes() const override { return passes_; }

 private:
  /// Load-imbalance tolerance as a fraction of average core load: the
  /// kernel's stock imbalance_pct = 125.
  static constexpr double kImbalancePct = 0.25;
  /// Safety valve on migrations per pass (sd->nr_balance_failed analogue).
  static constexpr int kMaxMovesPerPass = 8;

  std::uint64_t passes_ = 0;
};

}  // namespace sb::os
