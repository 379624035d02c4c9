// Completely Fair Scheduler runqueue.
//
// Orders runnable tasks by virtual runtime, ties broken by tid (the kernel
// uses a red-black tree). A per-core queue holds a handful of tasks, so the
// entries live in one flat vector sorted descending by (vruntime, tid): the
// leftmost task is the last element, a pop is pop_back, and an enqueue or
// remove is a binary search plus one insert or erase. Nothing allocates
// once the vector has grown to the queue's peak length. Tracks min_vruntime
// monotonically so newly woken or newly forked tasks can be placed without
// starving the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sb::os {

class CfsRunqueue {
 public:
  /// Inserts a runnable task. Throws std::logic_error, leaving the queue
  /// unchanged, if an entry with the same (vruntime, tid) is queued.
  void enqueue(ThreadId tid, double vruntime, std::uint32_t weight);

  /// Removes a specific task; returns false if it was not queued.
  bool remove(ThreadId tid, double vruntime);

  /// Pops the task with the smallest vruntime; kInvalidThread if empty.
  ThreadId pop_leftmost();

  /// Smallest queued vruntime (peek); only valid when !empty().
  double leftmost_vruntime() const;
  ThreadId leftmost() const;

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  /// Monotone floor for placing new arrivals (CFS min_vruntime).
  double min_vruntime() const { return min_vruntime_; }
  /// Raises min_vruntime (never lowers it).
  void update_min_vruntime(double v);

  /// Sum of queued tasks' weights (used by timeslice computation and by
  /// the vanilla balancer's notion of load).
  std::uint64_t total_weight() const { return total_weight_; }

  /// Snapshot of queued thread ids (ascending vruntime).
  std::vector<ThreadId> queued() const;

 private:
  struct Entry {
    double vruntime;
    ThreadId tid;
    std::uint32_t weight;
    bool operator<(const Entry& o) const {
      if (vruntime != o.vruntime) return vruntime < o.vruntime;
      return tid < o.tid;
    }
  };

  // The position of `e` in descending order: the first entry not above it.
  std::vector<Entry>::iterator position(const Entry& e);

  std::vector<Entry> queue_;  // sorted descending; leftmost at back()
  double min_vruntime_ = 0.0;
  std::uint64_t total_weight_ = 0;
};

}  // namespace sb::os
