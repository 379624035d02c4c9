// cpufreq-style DVFS governors.
//
// Orthogonal to load balancing (as in Linux): the governor picks each
// core's operating point from its OPP table based on recent busy time,
// while the balancer decides thread placement. Enabled by
// KernelConfig::enable_dvfs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace sb::os {

class Kernel;

class DvfsGovernor {
 public:
  virtual ~DvfsGovernor() = default;

  /// Interval between on_tick invocations.
  virtual TimeNs interval() const = 0;
  virtual void on_tick(Kernel& kernel, TimeNs now) = 0;
  virtual std::string name() const = 0;
};

/// Always the highest operating point (Linux "performance").
class PerformanceGovernor final : public DvfsGovernor {
 public:
  TimeNs interval() const override { return milliseconds(100); }
  void on_tick(Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "performance"; }
};

/// Always the lowest operating point (Linux "powersave").
class PowersaveGovernor final : public DvfsGovernor {
 public:
  TimeNs interval() const override { return milliseconds(100); }
  void on_tick(Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "powersave"; }
};

/// Utilization-driven stepping (Linux "ondemand"/"schedutil" flavour).
class OndemandGovernor final : public DvfsGovernor {
 public:
  TimeNs interval() const override { return milliseconds(30); }
  void on_tick(Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "ondemand"; }

  std::uint64_t transitions() const { return transitions_; }

 private:
  /// Busy fraction over the last tick above which the core jumps to its
  /// top operating point, and below which it steps down one.
  static constexpr double kUpThreshold = 0.85;
  static constexpr double kDownThreshold = 0.35;

  std::vector<TimeNs> prev_busy_;
  TimeNs prev_now_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace sb::os
