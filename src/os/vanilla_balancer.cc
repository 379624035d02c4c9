#include "os/vanilla_balancer.h"

#include <algorithm>
#include <vector>

#include "os/kernel.h"

namespace sb::os {

TimeNs VanillaBalancer::interval() const { return kSchedLatency; }

void VanillaBalancer::on_balance(Kernel& kernel, TimeNs /*now*/) {
  ++passes_;
  const int n = kernel.num_cores();
  if (n < 2) return;

  // One snapshot per pass: a migration never forks or exits a task.
  const std::vector<ThreadId> alive = kernel.alive_threads();
  for (int move = 0; move < kMaxMovesPerPass; ++move) {
    // find_busiest_queue / find_idlest_queue over raw CFS load.
    CoreId busiest = kInvalidCore, idlest = kInvalidCore;
    double max_load = -1, min_load = -1;
    int online = 0;
    double avg = 0;
    for (CoreId c = 0; c < n; ++c) {
      if (!kernel.core_online(c)) continue;
      ++online;
      const double load = kernel.core_load(c);
      avg += load;
      if (busiest == kInvalidCore || load > max_load) {
        max_load = load;
        busiest = c;
      }
      if (idlest == kInvalidCore || load < min_load) {
        min_load = load;
        idlest = c;
      }
    }
    if (busiest == idlest || online < 2) return;
    avg /= online;
    if (max_load - min_load <= kImbalancePct * std::max(avg, 1.0)) return;

    // Pull one queued (not running) task whose move reduces the imbalance.
    ThreadId candidate = kInvalidThread;
    for (ThreadId tid : alive) {
      const Task& t = kernel.task(tid);
      if (t.state != TaskState::Runnable || t.cpu != busiest) continue;
      if (!t.can_run_on(idlest)) continue;
      // Strict improvement required: moving the task must actually shrink
      // the gap, or back-and-forth churn results (the source core would be
      // exactly as imbalanced as the destination was).
      if (min_load + t.weight >= max_load) continue;
      candidate = tid;
      break;
    }
    if (candidate == kInvalidThread) return;
    kernel.migrate(candidate, idlest);
  }
}

}  // namespace sb::os
