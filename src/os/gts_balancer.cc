#include "os/gts_balancer.h"

#include <algorithm>

#include "os/kernel.h"

namespace sb::os {

TimeNs GtsBalancer::interval() const { return kSchedLatency; }

CoreId GtsBalancer::pick_core_in_cluster(Kernel& kernel, ThreadId tid,
                                         bool big) const {
  const Task& t = kernel.task(tid);
  CoreId best = kInvalidCore;
  double best_load = -1;
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    const bool is_big = kernel.platform().type_of(c) == kBigCoreType;
    if (is_big != big) continue;
    if (!t.can_run_on(c) || !kernel.core_online(c)) continue;
    const double load = kernel.core_load(c);
    if (best == kInvalidCore || load < best_load) {
      best = c;
      best_load = load;
    }
  }
  return best;
}

void GtsBalancer::balance_cluster(Kernel& kernel, bool big) const {
  // One equalization step per pass, vanilla-style, restricted to a cluster.
  CoreId busiest = kInvalidCore, idlest = kInvalidCore;
  double max_load = -1, min_load = -1;
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    const bool is_big = kernel.platform().type_of(c) == kBigCoreType;
    if (is_big != big) continue;
    if (!kernel.core_online(c)) continue;
    const double load = kernel.core_load(c);
    if (busiest == kInvalidCore || load > max_load) {
      max_load = load;
      busiest = c;
    }
    if (idlest == kInvalidCore || load < min_load) {
      min_load = load;
      idlest = c;
    }
  }
  if (busiest == kInvalidCore || busiest == idlest) return;
  if (max_load - min_load <= 0.25 * std::max(1.0, (max_load + min_load) / 2)) {
    return;
  }
  for (ThreadId tid : kernel.alive_threads()) {
    const Task& t = kernel.task(tid);
    if (t.state != TaskState::Runnable || t.cpu != busiest) continue;
    if (!t.can_run_on(idlest)) continue;
    if (min_load + t.weight >= max_load) continue;  // strict improvement only
    kernel.migrate(tid, idlest);
    return;
  }
}

void GtsBalancer::on_balance(Kernel& kernel, TimeNs /*now*/) {
  ++passes_;
  for (ThreadId tid : kernel.alive_threads()) {
    const Task& t = kernel.task(tid);
    const bool on_big = kernel.platform().type_of(t.cpu) == kBigCoreType;
    const double util = kernel.task_util(tid);

    if (!on_big && util > kUpThreshold) {
      const CoreId dest = pick_core_in_cluster(kernel, tid, /*big=*/true);
      if (dest != kInvalidCore) {
        kernel.migrate(tid, dest);
        ++up_;
      }
    } else if (on_big && util < kDownThreshold) {
      const CoreId dest = pick_core_in_cluster(kernel, tid, /*big=*/false);
      if (dest != kInvalidCore) {
        kernel.migrate(tid, dest);
        ++down_;
      }
    }
  }
  // Intra-cluster load balancing, like vanilla's.
  balance_cluster(kernel, /*big=*/true);
  balance_cluster(kernel, /*big=*/false);
}

}  // namespace sb::os
