#include "os/iks_balancer.h"

#include <algorithm>
#include <stdexcept>

#include "os/kernel.h"

namespace sb::os {

TimeNs IksBalancer::interval() const { return kSchedLatency; }

void IksBalancer::init_pairs(Kernel& kernel) {
  const auto& platform = kernel.platform();
  std::vector<CoreId> bigs, littles;
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    (platform.type_of(c) == kBigCoreType ? bigs : littles).push_back(c);
  }
  if (bigs.empty() || bigs.size() != littles.size()) {
    throw std::logic_error(
        "IksBalancer: platform must have equal big/little counts");
  }
  pairs_.clear();
  for (std::size_t i = 0; i < bigs.size(); ++i) {
    Pair p;
    p.big = bigs[i];
    p.little = littles[i];
    p.big_active = false;  // boot on the energy-efficient member
    pairs_.push_back(p);
  }
}

void IksBalancer::on_balance(Kernel& kernel, TimeNs /*now*/) {
  ++passes_;
  if (pairs_.empty()) init_pairs(kernel);

  // Partition alive threads by the pair that owns their current core.
  std::vector<std::vector<ThreadId>> members(pairs_.size());
  std::vector<double> pair_util(pairs_.size(), 0.0);
  for (ThreadId tid : kernel.alive_threads()) {
    const CoreId cpu = kernel.task(tid).cpu;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      if (cpu == pairs_[i].big || cpu == pairs_[i].little) {
        members[i].push_back(tid);
        pair_util[i] += kernel.task_util(tid);
        break;
      }
    }
  }

  // Switch each pair's active member with hysteresis, then consolidate the
  // pair's threads onto it (the scheduler sees one logical CPU).
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    Pair& p = pairs_[i];
    if (!kernel.core_online(p.big) || !kernel.core_online(p.little)) continue;
    const bool was_big = p.big_active;
    if (!p.big_active && pair_util[i] > kUpThreshold) {
      p.big_active = true;
    } else if (p.big_active && pair_util[i] < kDownThreshold) {
      p.big_active = false;
    }
    if (p.big_active != was_big) ++switches_;
    const CoreId active = active_core(p);
    for (ThreadId tid : members[i]) {
      if (kernel.task(tid).cpu != active && kernel.task(tid).can_run_on(active)) {
        kernel.migrate(tid, active);
      }
    }
  }

  if (pairs_.size() < 2) return;
  // Logical-CPU load balancing, as vanilla does across physical cores: move
  // one queued thread from the most to the least populated pair when counts
  // differ by 2+.
  std::size_t busiest = 0, idlest = 0;
  for (std::size_t i = 1; i < pairs_.size(); ++i) {
    if (members[i].size() > members[busiest].size()) busiest = i;
    if (members[i].size() < members[idlest].size()) idlest = i;
  }
  if (members[busiest].size() < members[idlest].size() + 2) return;
  const CoreId dest = active_core(pairs_[idlest]);
  for (ThreadId tid : members[busiest]) {
    const Task& t = kernel.task(tid);
    if (t.state == TaskState::Runnable && t.can_run_on(dest)) {
      kernel.migrate(tid, dest);
      return;
    }
  }
}

}  // namespace sb::os
