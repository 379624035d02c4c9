// Utilization-aware big.LITTLE balancing (Kim et al., DATE'14) — Table 1
// baseline.
//
// Kim2014 improves on IKS by bringing *per-core utilization awareness* to
// the balancer: instead of switching whole cluster pairs, it packs task
// utilization onto the energy-efficient little cores up to a capacity
// budget and spills only the overflow (highest-utilization tasks first)
// to big cores. Still no per-thread IPC/power awareness — exactly the row
// the paper's Table 1 assigns it.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "os/load_balancer.h"

namespace sb::os {

class UtilAwareBalancer final : public LoadBalancer {
 public:
  TimeNs interval() const override { return milliseconds(12); }
  void on_balance(Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "utilaware"; }
  std::uint64_t passes() const override { return passes_; }

 private:
  /// Per-little-core utilization budget before spilling to big.
  static constexpr double kLittleCapacity = 0.85;

  std::uint64_t passes_ = 0;
};

}  // namespace sb::os
