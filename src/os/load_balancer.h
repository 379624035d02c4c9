// Pluggable load-balancing policy interface.
//
// In the paper, SmartBalance is installed by reimplementing
// rebalance_domains() so the kernel invokes smart_balance() at epoch
// boundaries instead of the vanilla balancing pass. We reproduce that
// policy point: the Kernel fires on_balance() every interval(); the policy
// inspects kernel state (counters, sensors, utilizations) and requests
// migrations. Three policies implement this interface: VanillaBalancer,
// GtsBalancer and sb::core::SmartBalancePolicy.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace sb::os {

class Kernel;

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
  explicit NullBalancer(TimeNs interval = milliseconds(60)) : interval_(interval) {}
  TimeNs interval() const override { return interval_; }
  void on_balance(Kernel&, TimeNs) override {}
  std::string name() const override { return "none"; }

 private:
  TimeNs interval_;
};

}  // namespace sb::os
