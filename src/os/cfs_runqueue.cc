#include "os/cfs_runqueue.h"

#include <algorithm>
#include <stdexcept>

namespace sb::os {

std::vector<CfsRunqueue::Entry>::iterator CfsRunqueue::position(
    const Entry& e) {
  return std::lower_bound(
      queue_.begin(), queue_.end(), e,
      [](const Entry& queued, const Entry& key) { return key < queued; });
}

void CfsRunqueue::enqueue(ThreadId tid, double vruntime, std::uint32_t weight) {
  const Entry e{vruntime, tid, weight};
  const auto it = position(e);
  if (it != queue_.end() && !(*it < e)) {
    throw std::logic_error("CfsRunqueue: duplicate enqueue");
  }
  queue_.insert(it, e);
  total_weight_ += weight;
  update_min_vruntime(queue_.back().vruntime);
}

bool CfsRunqueue::remove(ThreadId tid, double vruntime) {
  // Entries are keyed by (vruntime, tid); vruntime is immutable while queued
  // so the key finds the entry directly.
  const Entry key{vruntime, tid, 0};
  const auto it = position(key);
  if (it == queue_.end() || *it < key) return false;
  total_weight_ -= it->weight;
  queue_.erase(it);
  return true;
}

ThreadId CfsRunqueue::pop_leftmost() {
  if (queue_.empty()) return kInvalidThread;
  const Entry& e = queue_.back();
  const ThreadId tid = e.tid;
  update_min_vruntime(e.vruntime);
  total_weight_ -= e.weight;
  queue_.pop_back();
  return tid;
}

double CfsRunqueue::leftmost_vruntime() const {
  if (queue_.empty()) throw std::logic_error("CfsRunqueue: empty");
  return queue_.back().vruntime;
}

ThreadId CfsRunqueue::leftmost() const {
  return queue_.empty() ? kInvalidThread : queue_.back().tid;
}

void CfsRunqueue::update_min_vruntime(double v) {
  min_vruntime_ = std::max(min_vruntime_, v);
}

std::vector<ThreadId> CfsRunqueue::queued() const {
  std::vector<ThreadId> out;
  out.reserve(queue_.size());
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    out.push_back(it->tid);
  }
  return out;
}

}  // namespace sb::os
