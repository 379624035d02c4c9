// Linaro In-Kernel Switcher (IKS) — Table 1 baseline.
//
// IKS pairs each big core with a little core into one *logical* CPU and
// switches the active member of the pair based on demand: the scheduler
// only ever sees the logical CPU, so the granularity is a core *pair*
// (cluster), not an individual task — the coarseness GTS (and the paper)
// improve upon. We model it faithfully: threads of a pair all run on the
// pair's active member; the switcher activates the big member when the
// pair's aggregate utilization crosses an up-threshold and falls back to
// the little member below a down-threshold.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "os/load_balancer.h"

namespace sb::os {

class IksBalancer final : public LoadBalancer {
 public:
  /// Fires once per CFS period.
  TimeNs interval() const override;
  void on_balance(Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "iks"; }
  std::uint64_t passes() const override { return passes_; }

  std::uint64_t switches() const { return switches_; }

 private:
  /// Pair utilization above which the big member is active, and below
  /// which the little one is.
  static constexpr double kUpThreshold = 0.60;
  static constexpr double kDownThreshold = 0.30;

  struct Pair {
    CoreId big = kInvalidCore;
    CoreId little = kInvalidCore;
    bool big_active = false;
  };

  void init_pairs(Kernel& kernel);
  CoreId active_core(const Pair& p) const {
    return p.big_active ? p.big : p.little;
  }

  std::vector<Pair> pairs_;
  std::uint64_t passes_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace sb::os
