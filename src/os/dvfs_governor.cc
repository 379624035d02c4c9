#include "os/dvfs_governor.h"

#include "os/kernel.h"

namespace sb::os {

void PerformanceGovernor::on_tick(Kernel& kernel, TimeNs /*now*/) {
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    kernel.set_core_opp(c, kernel.opp_table(c).size() - 1);
  }
}

void PowersaveGovernor::on_tick(Kernel& kernel, TimeNs /*now*/) {
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    kernel.set_core_opp(c, 0);
  }
}

void OndemandGovernor::on_tick(Kernel& kernel, TimeNs now) {
  const auto n = static_cast<std::size_t>(kernel.num_cores());
  if (prev_busy_.size() != n) {
    prev_busy_.assign(n, 0);
    for (CoreId c = 0; c < kernel.num_cores(); ++c) {
      prev_busy_[static_cast<std::size_t>(c)] = kernel.energy().busy_time(c);
    }
    prev_now_ = now;
    return;
  }
  const TimeNs window = now - prev_now_;
  prev_now_ = now;
  if (window <= 0) return;

  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const TimeNs busy = kernel.energy().busy_time(c);
    const double util = static_cast<double>(busy - prev_busy_[i]) /
                        static_cast<double>(window);
    prev_busy_[i] = busy;

    const std::size_t cur = kernel.core_opp_index(c);
    const std::size_t top = kernel.opp_table(c).size() - 1;
    std::size_t next = cur;
    if (util > kUpThreshold) {
      next = top;
    } else if (util < kDownThreshold && cur > 0) {
      next = cur - 1;
    }
    if (next != cur) {
      kernel.set_core_opp(c, next);
      ++transitions_;
    }
  }
}

}  // namespace sb::os
