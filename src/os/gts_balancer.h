// ARM Global Task Scheduling (GTS) policy — the state-of-the-art baseline
// of Fig. 5.
//
// GTS (ARM's big.LITTLE MP patch set) tracks per-task load/utilization and
// makes a *binary*, threshold-based decision per task: up-migrate a task to
// the big cluster when its tracked utilization crosses an "up" threshold,
// down-migrate when it falls under a "down" threshold. Unlike the in-kernel
// switcher (IKS) it selects individual cores, not cluster pairs, but it is
// structurally limited to exactly two core classes and uses utilization as
// a proxy for both performance and power (the limitation §6.1 quantifies).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "os/load_balancer.h"

namespace sb::os {

class GtsBalancer final : public LoadBalancer {
 public:
  /// Fires once per CFS period, as GTS's up/down checks ride the periodic
  /// balance.
  TimeNs interval() const override;
  void on_balance(Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "gts"; }
  std::uint64_t passes() const override { return passes_; }

  std::uint64_t up_migrations() const { return up_; }
  std::uint64_t down_migrations() const { return down_; }

 private:
  /// Tracked utilization above which a LITTLE task moves up to the big
  /// cluster, and below which a big task moves down.
  static constexpr double kUpThreshold = 0.65;
  static constexpr double kDownThreshold = 0.25;

  /// Least-loaded core of the given cluster that the task may run on.
  CoreId pick_core_in_cluster(Kernel& kernel, ThreadId tid, bool big) const;
  void balance_cluster(Kernel& kernel, bool big) const;

  std::uint64_t passes_ = 0;
  std::uint64_t up_ = 0;
  std::uint64_t down_ = 0;
};

}  // namespace sb::os
