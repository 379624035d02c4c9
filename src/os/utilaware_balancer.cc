#include "os/utilaware_balancer.h"

#include <algorithm>
#include <vector>

#include "os/kernel.h"

namespace sb::os {

void UtilAwareBalancer::on_balance(Kernel& kernel, TimeNs /*now*/) {
  ++passes_;
  const auto& platform = kernel.platform();

  std::vector<CoreId> bigs, littles;
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    if (!kernel.core_online(c)) continue;
    (platform.type_of(c) == kBigCoreType ? bigs : littles).push_back(c);
  }
  if (littles.empty() || bigs.empty()) return;

  // Rank tasks by tracked utilization, heaviest first.
  struct Entry {
    ThreadId tid;
    double util;
    int bucket;       // util quantized to 5% steps (stable ordering)
    bool on_little;   // incumbents keep their slots on ties
  };
  std::vector<Entry> tasks;
  for (ThreadId tid : kernel.alive_threads()) {
    const double u = kernel.task_util(tid);
    tasks.push_back({tid, u, static_cast<int>(u / 0.05),
                     platform.type_of(kernel.task(tid).cpu) != kBigCoreType});
  }
  std::sort(tasks.begin(), tasks.end(), [](const Entry& a, const Entry& b) {
    if (a.bucket != b.bucket) return a.bucket > b.bucket;
    if (a.on_little != b.on_little) return a.on_little > b.on_little;
    return a.tid < b.tid;
  });

  // First-fit-decreasing packing onto littles up to the capacity budget;
  // overflow goes to the least-loaded big.
  std::vector<double> little_load(littles.size(), 0.0);
  std::vector<double> big_load(bigs.size(), 0.0);
  for (const Entry& e : tasks) {
    const Task& t = kernel.task(e.tid);
    CoreId target = kInvalidCore;

    std::size_t best_l = 0;
    bool fits = false;
    for (std::size_t i = 0; i < littles.size(); ++i) {
      if (!t.can_run_on(littles[i])) continue;
      // A task fits if it respects the budget — or if the little core is
      // still empty (a single task may own a whole little outright; that
      // is always more efficient than a big core at any utilization).
      const bool ok = little_load[i] + e.util <= kLittleCapacity ||
                      little_load[i] == 0.0;
      if (!ok) continue;
      // Prefer the incumbent core, then the least-loaded.
      const bool better = !fits || littles[i] == t.cpu ||
                          (littles[best_l] != t.cpu &&
                           little_load[i] < little_load[best_l]);
      if (better) {
        best_l = i;
        fits = true;
      }
    }
    if (fits) {
      target = littles[best_l];
      little_load[best_l] += e.util;
    } else {
      std::size_t best_b = 0;
      bool any = false;
      for (std::size_t i = 0; i < bigs.size(); ++i) {
        if (!t.can_run_on(bigs[i])) continue;
        if (!any || big_load[i] < big_load[best_b]) {
          best_b = i;
          any = true;
        }
      }
      if (!any) continue;  // affinity leaves no choice
      target = bigs[best_b];
      big_load[best_b] += e.util;
    }

    // Hysteresis: cross-type moves always apply (that's the policy's
    // point); same-type moves only when they fix a real queue imbalance —
    // FFD tie-breaking would otherwise bounce tasks between equivalent
    // cores every pass.
    if (target == t.cpu) continue;
    const bool cross_type =
        platform.type_of(target) != platform.type_of(t.cpu);
    const bool fixes_imbalance =
        kernel.core_nr_running(t.cpu) >= kernel.core_nr_running(target) + 2;
    if (cross_type || fixes_imbalance) {
      kernel.migrate(e.tid, target);
    }
  }
}

}  // namespace sb::os
