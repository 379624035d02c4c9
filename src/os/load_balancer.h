// Pluggable load-balancing policy interface.
//
// In the paper, SmartBalance is installed by reimplementing
// rebalance_domains() so the kernel invokes smart_balance() at epoch
// boundaries instead of the vanilla balancing pass. We reproduce that
// policy point: the Kernel fires on_balance() every interval(); the policy
// inspects kernel state (counters, sensors, utilizations) and requests
// migrations. The baselines in this directory (VanillaBalancer,
// GtsBalancer, IksBalancer, UtilAwareBalancer, NullBalancer) and
// sb::core::SmartBalancePolicy implement it; sim::policy_factory names each.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace sb::os {

class Kernel;

/// The core type the big.LITTLE baselines (GTS, IKS, UtilAware) treat as
/// the big cluster; every other type is LITTLE. Type 0 is the A15 in
/// Platform::octa_big_little().
inline constexpr CoreTypeId kBigCoreType = 0;

class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;

  /// Interval between on_balance invocations (SmartBalance: the epoch,
  /// 60 ms by default; vanilla: every CFS period).
  virtual TimeNs interval() const = 0;

  /// One balancing pass at simulated time `now`.
  virtual void on_balance(Kernel& kernel, TimeNs now) = 0;

  virtual std::string name() const = 0;

  /// Balancing passes run so far (default: none counted).
  virtual std::uint64_t passes() const { return 0; }
};

/// No-op policy: CFS on whatever core a task was forked to. The degenerate
/// baseline used in tests and as a lower bound in experiments.
class NullBalancer final : public LoadBalancer {
 public:
  /// Fires, to no effect, once per default SmartBalance epoch.
  TimeNs interval() const override { return milliseconds(60); }
  void on_balance(Kernel&, TimeNs) override {}
  std::string name() const override { return "none"; }
};

}  // namespace sb::os
